"""Exact arithmetic substrate: rationals, bivariate polynomials in {b, x},
truncated power series, and fraction-free determinants.

Matrices are plain sequences of rows; squareness is validated by the
determinant routines and the empty 0x0 determinant is 1 by convention.
All scalars are arbitrary-precision rationals (fractions.Fraction); floats
are rejected everywhere so no inexact value can enter a computation.
"""

from fractions import Fraction
from math import factorial, lcm, prod
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "B",
    "X",
    "Poly",
    "PowerSeries",
    "binom_poly",
    "det_exact",
    "det_poly",
    "leading_minors",
    "series_mul",
    "series_reciprocal",
]

Scalar = Union[int, Fraction]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact scalar required, got {type(value).__name__}")


class IndexTypeError(TypeError, ValueError):
    """An index that is not an int, a bool included.

    Also a ValueError: the Hankel entry points have always refused a bool
    index with ValueError, and the moment routes refuse a float with
    TypeError; one check serves both."""


def _check_index(name: str, value) -> None:
    # a function that memoizes on the index and checks it inside caches with
    # typed=True, so a cached int never answers for the equal bool
    if isinstance(value, bool) or not isinstance(value, int):
        raise IndexTypeError(
            f"{name} must be a nonnegative integer, got {type(value).__name__}"
        )
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


class Poly:
    """Polynomial in the commuting variables b and x over the rationals.

    Immutable. Stored as a sparse map (x_degree, b_degree) -> coefficient
    with zero coefficients stripped, so equality is support equality.
    """

    __slots__ = ("_c", "_hash", "_slices")

    def __init__(self, coeffs: Mapping = ()):
        c = {}
        for key, value in dict(coeffs).items():
            dx, db = key
            if not (isinstance(dx, int) and isinstance(db, int) and dx >= 0 and db >= 0):
                raise ValueError(f"bad exponent pair {key!r}")
            v = _as_fraction(value)
            if v:
                c[(dx, db)] = v
        self._c = c
        self._hash = None
        self._slices = None

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(0, 0): _as_fraction(value)})

    @classmethod
    def _raw(cls, c: dict) -> "Poly":
        p = object.__new__(cls)
        p._c = c
        p._hash = None
        p._slices = None
        return p

    @classmethod
    def _over(cls, numerators: dict, den: int) -> "Poly":
        # integer numerators over one denominator, one Fraction per term
        return cls._raw({key: Fraction(v, den) for key, v in numerators.items() if v})

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def deg_x(self) -> int:
        return max((k[0] for k in self._c), default=-1)

    @property
    def deg_b(self) -> int:
        return max((k[1] for k in self._c), default=-1)

    def coeff(self, dx: int, db: int) -> Fraction:
        return self._c.get((dx, db), Fraction(0))

    def x_coefficient(self, dx: int) -> "Poly":
        """Coefficient of x^dx as a polynomial in b."""
        return Poly._raw(
            {(0, db): v for (d, db), v in self._c.items() if d == dx}
        )

    def terms(self):
        """Iterate (x_degree, b_degree, coefficient) in canonical order."""
        for dx, db in sorted(self._c, key=lambda k: (-k[0], -k[1])):
            yield dx, db, self._c[(dx, db)]

    def constant(self) -> Fraction:
        """The value of a constant polynomial; error if any variable occurs."""
        if not self._c:
            return Fraction(0)
        if set(self._c) != {(0, 0)}:
            raise ValueError(f"not a constant polynomial: {self.render()}")
        return self._c[(0, 0)]

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for key, value in other._c.items():
            s = c.get(key, 0) + value
            if s:
                c[key] = s
            else:
                c.pop(key, None)
        return Poly._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # integer numerators over each factor's common denominator: one
        # Fraction per result coefficient, not one per term pair
        da, terms_a = self._numerators()
        db, terms_b = other._numerators()
        return Poly._over(_int_product(terms_a, terms_b), da * db)

    def _numerators(self):
        # lcm(*list), not lcm(*generator): a generator's argument tuple is
        # built at one size and freed at another, which moves tuples between
        # the interpreter's per-size free lists and grows them on every call
        den = lcm(*[v.denominator for v in self._c.values()])
        return den, [(key, v.numerator * (den // v.denominator)) for key, v in self._c.items()]

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if isinstance(exponent, bool):
            raise TypeError("exponent must be an integer, got bool")
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    # -- substitution ----------------------------------------------------

    def _x_slices(self):
        rows: dict = {}
        for (dx, db), v in self._c.items():
            rows.setdefault(dx, {})[(0, db)] = v
        return rows

    def subs(self, x=None, b=None) -> "Poly":
        """Substitute polynomials or exact scalars for x and/or b."""
        result = self
        if x is not None:
            result = result._subs_var(0, x)
        if b is not None:
            result = result._subs_var(1, b)
        return result

    def _subs_var(self, axis: int, value) -> "Poly":
        if isinstance(value, (int, Fraction)):
            return self._eval_var(axis, value)
        value = self._coerce(value)
        if value is None:
            raise TypeError("substitution value must be a Poly or exact scalar")
        slices: dict = {}
        for key, v in self._c.items():
            d = key[axis]
            other = key[1 - axis]
            rest_key = (0, other) if axis == 0 else (other, 0)
            slices.setdefault(d, {})[rest_key] = v
        if not slices:
            return Poly.const(0)
        acc = Poly.const(0)
        for d in range(max(slices), -1, -1):
            acc = acc * value
            if d in slices:
                acc = acc + Poly._raw(dict(slices[d]))
        return acc

    def _eval_var(self, axis: int, value) -> "Poly":
        # Horner in integers per monomial of the other variable, over the
        # common denominator of its coefficients; one Fraction per monomial
        p, q = value.numerator, value.denominator
        out = {}
        for other, den, coeffs in self._int_slices(axis):
            acc = 0
            q_power = 1
            for v in coeffs:
                acc = acc * p + v * q_power
                q_power *= q
            if acc:
                key = (0, other) if axis == 0 else (other, 0)
                out[key] = Fraction(acc, den * q ** (len(coeffs) - 1))
        return Poly._raw(out)

    def _int_slices(self, axis: int) -> list:
        # per monomial of the other variable: (its degree, the common
        # denominator, integer numerators from the top degree in `axis`
        # down to 0); built once, since evaluation repeats at many points
        if self._slices is None:
            self._slices = [None, None]
        slices = self._slices[axis]
        if slices is None:
            groups: dict = {}
            for key, v in self._c.items():
                groups.setdefault(key[1 - axis], {})[key[axis]] = v
            slices = []
            for other, cs in groups.items():
                den = lcm(*[v.denominator for v in cs.values()])
                top = max(cs)
                coeffs = [0] * (top + 1)
                for d, v in cs.items():
                    coeffs[top - d] = v.numerator * (den // v.denominator)
                slices.append((other, den, coeffs))
            self._slices[axis] = slices
        return slices

    def shift_x(self, beta) -> "Poly":
        """x -> x + beta for an exact scalar beta.

        For beta = p/q, each b-slice f with top degree n becomes the integer
        polynomial h(x) = q^n * f(x/q) (times the slice's denominator), which
        is Taylor-shifted by p in integers; then f(x + beta) = h(qx + p)/q^n.
        """
        beta = _as_fraction(beta)
        p, q = beta.numerator, beta.denominator
        out = {}
        for db, den, coeffs in self._int_slices(0):
            top = len(coeffs) - 1
            # h in descending powers of x: coeffs[i] is the x^(top-i) term
            h = [v * q**i for i, v in enumerate(coeffs)]
            if p:
                # repeated synthetic division by (x - p): h(x) -> h(x + p)
                for end in range(top, 0, -1):
                    for i in range(1, end + 1):
                        h[i] += p * h[i - 1]
            for i, v in enumerate(h):
                if v:
                    out[(top - i, db)] = Fraction(v, den * q**i)
        return Poly._raw(out)

    def compress_even_x(self) -> "Poly":
        """x^(2i) -> x^i; error if any odd-degree-in-x term is present."""
        out = {}
        for (dx, db), v in self._c.items():
            if dx % 2:
                raise ValueError("polynomial has odd-degree terms in x")
            out[(dx // 2, db)] = v
        return Poly._raw(out)

    def compress_odd_x(self) -> "Poly":
        """x^(2i+1) -> x^i; error if any even-degree-in-x term is present."""
        out = {}
        for (dx, db), v in self._c.items():
            if dx % 2 == 0:
                raise ValueError("polynomial has even-degree terms in x")
            out[((dx - 1) // 2, db)] = v
        return Poly._raw(out)

    def exact_div(self, divisor) -> "Poly":
        """Quotient self/divisor when the division is exact; error otherwise."""
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return self
        quotient = _frac_div_exact(self._c, divisor._c)
        if quotient is None:
            raise ValueError("polynomial division is not exact")
        return Poly._raw(quotient)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: descending x-degree, then descending b-degree."""
        if not self._c:
            return "0"
        pieces = []
        for dx, db in sorted(self._c, key=lambda k: (-k[0], -k[1])):
            coeff = self._c[(dx, db)]
            vars_part = "*".join(
                (f"{name}^{d}" if d > 1 else name)
                for name, d in (("b", db), ("x", dx))
                if d > 0
            )
            mag = abs(coeff)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
        return "".join(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


X = Poly({(1, 0): 1})
B = Poly({(0, 1): 1})


def _frac_div_exact(f: dict, g: dict):
    """Exact division of coefficient maps over Q; None if not exact.

    Dense synthetic division along x with coefficients in Q[b].
    """

    def by_xdeg(c):
        rows: dict = {}
        for (dx, db), v in c.items():
            rows.setdefault(dx, {})[db] = v
        return rows

    fx = by_xdeg(f)
    gx = by_xdeg(g)
    g_top = max(gx)
    g_lead = gx[g_top]
    f_top = max(fx)
    if f_top < g_top:
        return None
    rem = {dx: dict(cs) for dx, cs in fx.items()}
    quotient: dict = {}
    for dq in range(f_top - g_top, -1, -1):
        num = rem.get(dq + g_top)
        if not num:
            continue
        qb = _frac_div_exact_b(num, g_lead)
        if qb is None:
            return None
        for db, v in qb.items():
            quotient[(dq, db)] = v
        for dgx, gcs in gx.items():
            target = rem.setdefault(dq + dgx, {})
            for dgb, gv in gcs.items():
                for db, qv in qb.items():
                    key = dgb + db
                    s = target.get(key, 0) - qv * gv
                    if s:
                        target[key] = s
                    else:
                        target.pop(key, None)
    if any(cs for cs in rem.values()):
        return None
    return quotient


def _frac_div_exact_b(num: dict, den: dict):
    """Exact division of univariate b-coefficient maps over Q; None if not exact."""
    d_top = max(den)
    d_lead = den[d_top]
    rem = dict(num)
    quotient: dict = {}
    while rem:
        n_top = max(rem)
        if n_top < d_top:
            return None
        qc = rem[n_top] / d_lead
        dq = n_top - d_top
        quotient[dq] = qc
        for dd, dv in den.items():
            key = dq + dd
            s = rem.get(key, 0) - qc * dv
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return quotient


def _int_product(terms_a, terms_b) -> dict:
    """Product of two polynomials given as ((x_degree, b_degree), integer)
    pairs, as a map to integer coefficients; zero sums are kept."""
    out: dict = {}
    get = out.get
    for (xa, ba), va in terms_a:
        for (xb, bb), vb in terms_b:
            key = (xa + xb, ba + bb)
            out[key] = get(key, 0) + va * vb
    return out


def binom_poly(argument, r: int) -> Poly:
    """Binomial coefficient C(argument, r) as a polynomial: the falling
    factorial argument*(argument-1)*...*(argument-r+1) divided by r!.

    The factors d*argument - d*t are multiplied in integers, d the common
    denominator of the argument's coefficients, and divided by d^r * r!
    once at the end."""
    _check_index("r", r)
    arg = argument if isinstance(argument, Poly) else Poly.const(argument)
    d, terms = arg._numerators()
    constant = dict(terms).get((0, 0), 0)
    rest = [(key, v) for key, v in terms if key != (0, 0)]
    product = {(0, 0): 1}
    for t in range(r):
        c = constant - d * t
        product = _int_product(product.items(), rest + [((0, 0), c)] if c else rest)
    return Poly._over(product, d**r * factorial(r))


# ---------------------------------------------------------------------------
# determinants


def _validated_square(rows) -> list:
    out = [list(row) for row in rows]
    k = len(out)
    for row in out:
        if len(row) != k:
            raise ValueError("matrix is not square")
    return out


def det_exact(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Exact determinant of a rational matrix via fraction-free Bareiss
    elimination after clearing row denominators."""
    m = _validated_square(rows)
    k = len(m)
    if k == 0:
        return Fraction(1)
    scale = 1
    im = []
    for row in m:
        fracs = [_as_fraction(v) for v in row]
        d = lcm(*(f.denominator for f in fracs)) if fracs else 1
        scale *= d
        im.append([int(f * d) for f in fracs])
    return Fraction(_bareiss_int(im), scale)


def _bareiss_int(m: list) -> int:
    k = len(m)
    sign = 1
    prev = 1
    for r in range(k - 1):
        if m[r][r] == 0:
            for i in range(r + 1, k):
                if m[i][r] != 0:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[r][r]
        for i in range(r + 1, k):
            head = m[i][r]
            row_i = m[i]
            row_r = m[r]
            for j in range(r + 1, k):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            row_i[r] = 0
        prev = pivot
    return sign * m[k - 1][k - 1]


def leading_minors(rows: Sequence[Sequence[int]]) -> list:
    """Leading principal minors of an integer matrix from one fraction-free
    Bareiss pass without row swaps: entry r is the determinant of the
    top-left (r+1)x(r+1) block. The pass ends at the first zero pivot, so a
    list shorter than the order ends with that zero minor."""
    m = _validated_square(rows)
    k = len(m)
    minors = []
    prev = 1
    for r in range(k):
        pivot = m[r][r]
        minors.append(pivot)
        if pivot == 0:
            break
        row_r = m[r]
        for i in range(r + 1, k):
            row_i = m[i]
            head = row_i[r]
            for j in range(r + 1, k):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
        prev = pivot
    return minors


def det_poly(rows: Sequence[Sequence]) -> Poly:
    """Exact determinant of a matrix over Q[b, x], from integer determinants.

    Denominators are cleared per row or per column, whichever scale product
    is smaller. The degree of the determinant in each variable is bounded by
    the lesser of the row sums and the column sums of the entries' maximal
    degrees; the variable with the smaller bound D is evaluated at 0..D.
    At each point the other variable is packed as 2^w (Kronecker
    substitution), where 2^(w-1) exceeds the lesser of the products of the
    rows' and of the columns' coefficient 1-norms, either of which bounds
    every coefficient of every minor. Each packed integer matrix is
    eliminated by the same fraction-free Bareiss routine as det_exact; its
    determinant unpacks in balanced base-2^w digits, and integer Newton
    interpolation over the D+1 points rebuilds each coefficient. Both bounds
    are rigorous: no degree is guessed and no point is random.
    """
    m = _validated_square(rows)
    k = len(m)
    if k == 0:
        return Poly.const(1)
    cs = [[(e if isinstance(e, Poly) else Poly.const(e))._c for e in row] for row in m]
    row_dens = [lcm(*[v.denominator for c in row for v in c.values()]) for row in cs]
    col_dens = [lcm(*[v.denominator for c in col for v in c.values()]) for col in zip(*cs)]
    row_scale, col_scale = prod(row_dens), prod(col_dens)
    scale = min(row_scale, col_scale)
    dens = [col_dens] * k if col_scale < row_scale else [[d] * k for d in row_dens]
    im = [
        [{key: v.numerator * (d // v.denominator) for key, v in c.items()} for c, d in zip(row, drow)]
        for row, drow in zip(cs, dens)
    ]
    bounds = []
    for axis in (0, 1):
        degs = [[max((key[axis] for key in c), default=0) for c in row] for row in im]
        bounds.append(min(sum(map(max, degs)), sum(map(max, zip(*degs)))))
    axis = 0 if bounds[0] <= bounds[1] else 1  # the evaluated variable
    top = bounds[axis]
    pack = 1 - axis
    per_point = []
    for t in range(top + 1):
        powers = [t**e for e in range(top + 1)]
        packed = []
        for row in im:
            at_t = []
            for c in row:
                v: dict = {}
                for key, coeff in c.items():
                    v[key[pack]] = v.get(key[pack], 0) + coeff * powers[key[axis]]
                at_t.append(v)
            packed.append(at_t)
        norms = [[sum(map(abs, v.values())) for v in row] for row in packed]
        norm = min(
            prod(max(sum(line), 1) for line in lines) for lines in (norms, zip(*norms))
        )
        width = norm.bit_length() + 1
        for i, at_t in enumerate(packed):
            packed[i] = [sum(a << (width * d) for d, a in v.items()) for v in at_t]
        per_point.append(_balanced_digits(_bareiss_int(packed), width))
    out = {}
    for d in range(max(map(len, per_point))):
        column = [digits[d] if d < len(digits) else 0 for digits in per_point]
        for e, v in enumerate(_interpolate(column)):
            if v:
                out[(e, d) if axis == 0 else (d, e)] = Fraction(v, scale)
    return Poly._raw(out)


def _balanced_digits(value: int, width: int) -> list:
    """Digits of value in base 2^width, lowest first, each in
    [-2^(width-1), 2^(width-1))."""
    digits = []
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    while value:
        d = value & mask
        if d >= half:
            d -= 1 << width
        digits.append(d)
        value = (value - d) >> width
    return digits


def _interpolate(values: list) -> list:
    """Integer coefficients, lowest first, of the integer polynomial of
    degree < len(values) that takes values[t] at t = 0, 1, ...

    Divided differences of an integer polynomial at consecutive integers are
    integers, so every division is exact."""
    c = list(values)
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) // j
    p = [c[-1]]
    for i in range(n - 2, -1, -1):
        # Newton form to monomials: p <- p * (t - i) + c[i]
        p = [lo - i * hi for lo, hi in zip([0] + p, p + [0])]
        p[0] += c[i]
    return p


# ---------------------------------------------------------------------------
# truncated power series


class PowerSeries:
    """Power series truncated at a fixed order N: coefficients of x^0..x^(N-1).

    Operations require matching orders; mismatches are errors, never silent
    retruncation.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(_as_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("series order must be at least 1")
        self._coeffs = cs

    @property
    def order(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, i: int) -> Fraction:
        return self._coeffs[i]

    def _check_order(self, other: "PowerSeries"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            return PowerSeries(a + b for a, b in zip(self._coeffs, other._coeffs))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            return PowerSeries(a - b for a, b in zip(self._coeffs, other._coeffs))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            n = self.order
            out = [Fraction(0)] * n
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for j in range(n - i):
                    bj = other._coeffs[j]
                    if bj:
                        out[i + j] += a * bj
            return PowerSeries(out)
        if isinstance(other, (int, Fraction)):
            s = _as_fraction(other)
            return PowerSeries(s * c for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        if self._coeffs[0] == 0:
            raise ValueError("non-unit series has no reciprocal")
        inv0 = 1 / self._coeffs[0]
        out = [inv0]
        for n in range(1, self.order):
            acc = Fraction(0)
            for i in range(1, n + 1):
                if self._coeffs[i]:
                    acc += self._coeffs[i] * out[n - i]
            out.append(-inv0 * acc)
        return PowerSeries(out)

    def __eq__(self, other):
        if isinstance(other, PowerSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"PowerSeries({list(self._coeffs)!r})"


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the shared order."""
    return a * b


def series_reciprocal(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse of a unit series, same order."""
    return a.reciprocal()
