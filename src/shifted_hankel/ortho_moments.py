"""Orthogonal polynomial families defined by Jacobi parameters, their moment
sequences, the associated number triangles, and generating functions.

A family is given by parameter sequences s and t (each a finite prefix plus an
eventually constant tail). The monic polynomials follow the three-term
recurrence p_n = (x - s_{n-1}) p_{n-1} - t_{n-2} p_{n-2} with p_0 = 1, and the
moments of the underlying linear functional are recovered from the expansion
of x^n in the p-basis. Parameters may contain the formal variable b, in which
case every derived quantity is a polynomial in b.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional, Sequence, Union

from .exact_core import (
    B,
    Poly,
    PowerSeries,
    X,
    _as_fraction,
    _check_index,
    series_mul,
    series_reciprocal,
)
from .report import VerificationReport, _nonempty

__all__ = [
    "JacobiSpec",
    "MomentSequence",
    "ParamSeq",
    "TriangleSpec",
    "expansion_coeffs",
    "f_spec",
    "fibonacci_spec",
    "g_spec",
    "gf_coeffs",
    "lemma8_spec",
    "lucas_spec",
    "moment",
    "named_poly",
    "ortho_poly",
    "P_spec",
    "param_seq",
    "sequence_term",
    "triangle_entry",
    "verify_basis_expansion",
]

SEQUENCE_FAMILIES = ("catalan", "shifted_catalan", "Mb", "Mcap", "central", "middle")
TRIANGLE_TAGS = ("catalan_triangle", "angle_brackets", "a046899")


def _to_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


@dataclass(frozen=True)
class ParamSeq:
    """Finite prefix plus eventually constant tail; values are Polys in b."""

    prefix: tuple
    tail: Poly

    def at(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("parameter index must be nonnegative")
        return self.prefix[n] if n < len(self.prefix) else self.tail

    def is_numeric(self) -> bool:
        return all(p.deg_b <= 0 for p in self.prefix) and self.tail.deg_b <= 0


def param_seq(prefix: Sequence, tail) -> ParamSeq:
    return ParamSeq(tuple(_to_poly(p) for p in prefix), _to_poly(tail))


@dataclass(frozen=True)
class JacobiSpec:
    """Jacobi parameters (s, t) of a monic orthogonal polynomial family."""

    s: ParamSeq
    t: ParamSeq

    @property
    def is_numeric(self) -> bool:
        return self.s.is_numeric() and self.t.is_numeric()

    def specialize(self, b_value) -> "JacobiSpec":
        b_value = _as_fraction(b_value)

        def sub(seq: ParamSeq) -> ParamSeq:
            return ParamSeq(
                tuple(p.subs(b=b_value) for p in seq.prefix),
                seq.tail.subs(b=b_value),
            )

        return JacobiSpec(sub(self.s), sub(self.t))


def _b_or_formal(b) -> Poly:
    if b is None:
        return B
    return _to_poly(b)


def fibonacci_spec() -> JacobiSpec:
    return JacobiSpec(param_seq([], 0), param_seq([], 1))


def f_spec() -> JacobiSpec:
    return JacobiSpec(param_seq([1], 2), param_seq([], 1))


def g_spec() -> JacobiSpec:
    return JacobiSpec(param_seq([], 2), param_seq([], 1))


def P_spec(b=None) -> JacobiSpec:
    bb = _b_or_formal(b)
    return JacobiSpec(param_seq([bb + 1], 2), param_seq([], 1))


def lemma8_spec(b=None) -> JacobiSpec:
    bb = _b_or_formal(b)
    return JacobiSpec(param_seq([bb + 2], 2), param_seq([2 - bb], 1))


def lucas_spec() -> JacobiSpec:
    return JacobiSpec(param_seq([], 0), param_seq([2], 1))


# (cached row function, key) -> the n up to which its cache holds every row
_FILLED: dict = {}


def _bottom_up(row_fn, key, n: int):
    """row_fn(key, n) for a memoized recurrence in n, after filling the
    rows from the highest one filled so far up to n - 1 in order: each
    row then finds its predecessors cached and recurses one level, where
    a cold row_fn(key, 600) would recurse 600 levels deep."""
    top = _FILLED.get((row_fn, key), -1)
    if n > top:
        for m in range(top + 1, n):
            row_fn(key, m)
        _FILLED[(row_fn, key)] = n
    return row_fn(key, n)


@lru_cache(maxsize=None)
def _ortho_chain(spec: JacobiSpec, n: int) -> Poly:
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return X - spec.s.at(0)
    return (X - spec.s.at(n - 1)) * _ortho_chain(spec, n - 1) - spec.t.at(
        n - 2
    ) * _ortho_chain(spec, n - 2)


def ortho_poly(spec: JacobiSpec, n: int) -> Poly:
    """Monic orthogonal polynomial p_n of the family given by spec."""
    _check_index("n", n)
    return _bottom_up(_ortho_chain, spec, n)


@lru_cache(maxsize=None)
def _expansion_row(spec: JacobiSpec, n: int) -> tuple:
    if n == 0:
        return (Poly.const(1),)
    prev = _expansion_row(spec, n - 1)

    def at(k: int) -> Poly:
        return prev[k] if 0 <= k < n else Poly.const(0)

    return tuple(
        at(k - 1) + spec.s.at(k) * at(k) + spec.t.at(k) * at(k + 1)
        for k in range(n + 1)
    )


def expansion_coeffs(spec: JacobiSpec, n: int) -> list:
    """Coefficients c(n, 0..n) of x^n = sum_k c(n,k) p_k(x).

    Rational values for numeric specs, polynomials in b otherwise.
    """
    _check_index("n", n)
    row = _bottom_up(_expansion_row, spec, n)
    if spec.is_numeric:
        return [p.constant() for p in row]
    return list(row)


def moment(spec: JacobiSpec, n: int) -> Union[Fraction, Poly]:
    """n-th moment of the family's functional: the p_0-coefficient of x^n."""
    return expansion_coeffs(spec, n)[0]


# ---------------------------------------------------------------------------
# named closed forms


def _closed_fibonacci(n: int) -> Poly:
    acc = Poly.const(0)
    for j in range(n // 2 + 1):
        term = Fraction((-1) ** j) * comb(n - j, j) * X ** (n - 2 * j)
        acc = acc + term
    return acc


def _closed_lucas(n: int) -> Poly:
    if n == 0:
        return Poly.const(1)
    acc = Poly.const(0)
    for k in range(n // 2 + 1):
        c = Fraction(n, n - k) * comb(n - k, k) * (-1) ** k
        acc = acc + c * X ** (n - 2 * k)
    return acc


def _closed_f(n: int) -> Poly:
    acc = Poly.const(0)
    for j in range(n + 1):
        acc = acc + Fraction((-1) ** (n - j)) * comb(n + j, 2 * j) * X**j
    return acc


def _closed_g(n: int) -> Poly:
    acc = Poly.const(0)
    for j in range(n + 1):
        acc = acc + Fraction((-1) ** (n - j)) * comb(n + 1 + j, 2 * j + 1) * X**j
    return acc


def _closed_P(n: int, bb: Poly) -> Poly:
    acc = Poly.const(0)
    for j in range(n + 1):
        sign = (-1) ** (n - j)
        coeff = comb(n + j, 2 * j) + bb * comb(n + j, 2 * j + 1)
        acc = acc + sign * coeff * X**j
    return acc


def _closed_lemma8(n: int, bb: Poly) -> Poly:
    if n == 0:
        return Poly.const(1)
    acc = Poly.const(0)
    for j in range(n + 1):
        sign = (-1) ** (n - j)
        main = Fraction(2 * n, n + j) * comb(n + j, 2 * j)
        side = Fraction(2 * n - 1, n + j) * comb(n + j, 2 * j + 1)
        acc = acc + sign * (main + bb * side) * X**j
    return acc


_NAMED = {
    "fibonacci": (lambda n, bb: _closed_fibonacci(n), lambda bb: fibonacci_spec()),
    "lucas": (lambda n, bb: _closed_lucas(n), lambda bb: lucas_spec()),
    "f": (lambda n, bb: _closed_f(n), lambda bb: f_spec()),
    "g": (lambda n, bb: _closed_g(n), lambda bb: g_spec()),
    "P": (_closed_P, lambda bb: P_spec(bb)),
    "p_lemma8": (_closed_lemma8, lambda bb: lemma8_spec(bb)),
}


def named_poly(kind: str, n: int, b=None) -> Poly:
    """Closed-form family member; recomputed via the three-term recurrence and
    cross-checked before being returned."""
    if kind not in _NAMED:
        raise ValueError(f"unknown polynomial family {kind!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    closed_fn, spec_fn = _NAMED[kind]
    bb = _b_or_formal(b)
    closed = closed_fn(n, bb)
    recurrent = ortho_poly(spec_fn(bb), n)
    if closed != recurrent:
        raise ArithmeticError(
            f"closed form and recurrence disagree for {kind}, n={n}"
        )
    return closed


# ---------------------------------------------------------------------------
# moment sequences


def sequence_term(family: str, n: int, b=None) -> Union[Fraction, Poly]:
    """Closed-form term of one of the catalogued moment sequences."""
    if family not in SEQUENCE_FAMILIES:
        raise ValueError(f"unknown sequence family {family!r}")
    _check_index("n", n)
    if family == "catalan":
        return Fraction(comb(2 * n, n), n + 1)
    if family == "shifted_catalan":
        return Fraction(comb(2 * n + 2, n + 1), n + 2)
    if family == "central":
        return Fraction(comb(2 * n, n))
    if family == "middle":
        return Fraction(comb(n, n // 2))
    if b is None:
        raise ValueError(f"family {family!r} requires the parameter b")
    if family == "Mb":
        acc = _to_poly(0)
        for j in range(n + 1):
            entry = _binom(n + j, j) - _binom(n + j, j - 1)
            acc = acc + entry * _pow(b, n - j)
        return _collapse(acc, b)
    # Mcap
    acc = _to_poly(0)
    for j in range(n + 1):
        acc = acc + comb(n + j, j) * _pow(b, n - j)
    return _collapse(acc, b)


def _pow(b, e: int):
    if isinstance(b, Poly):
        return b**e
    return _as_fraction(b) ** e


def _collapse(value, b):
    if isinstance(value, Poly) and not isinstance(b, Poly):
        return value.constant()
    return value


@dataclass(frozen=True)
class MomentSequence:
    """A catalogued moment sequence, or the moments of an explicit JacobiSpec.

    Terms are exact rationals, or polynomials in b when b is formal.
    """

    family: str
    b: Optional[Union[Fraction, Poly]] = None
    spec: Optional[JacobiSpec] = None

    def __post_init__(self):
        if self.family == "jacobi":
            if self.spec is None:
                raise ValueError("jacobi moment sequence requires a spec")
        elif self.family not in SEQUENCE_FAMILIES:
            raise ValueError(f"unknown sequence family {self.family!r}")
        elif self.family in ("Mb", "Mcap") and self.b is None:
            raise ValueError(f"family {self.family!r} requires the parameter b")

    @classmethod
    def from_jacobi(cls, spec: JacobiSpec) -> "MomentSequence":
        return cls("jacobi", spec=spec)

    def term(self, n: int):
        return _sequence_term_cached(self, n)

    @property
    def is_numeric(self) -> bool:
        if self.family == "jacobi":
            return self.spec.is_numeric
        return not isinstance(self.b, Poly)


# typed, so a cached int term never answers for the equal bool index
@lru_cache(maxsize=None, typed=True)
def _sequence_term_cached(seq: MomentSequence, n: int):
    if seq.family == "jacobi":
        return moment(seq.spec, n)
    return sequence_term(seq.family, n, b=seq.b)


# ---------------------------------------------------------------------------
# number triangles


# typed, so a cached int row never answers for the equal bool index
@lru_cache(maxsize=None, typed=True)
def _triangle_row(tag: str, n: int) -> tuple:
    if tag == "catalan_triangle":
        if n == 0:
            return (1,)
        prev = _triangle_row(tag, n - 1)
        row = [1]
        for k in range(1, n + 1):
            above = prev[k] if k < n else 0
            row.append(row[k - 1] + above)
        return tuple(row)
    if tag == "angle_brackets":
        if n == 0:
            return (1,)
        prev = _triangle_row(tag, n - 1)
        width = n // 2 + 1
        prev_width = (n - 1) // 2 + 1

        def at(k):
            return prev[k] if 0 <= k < prev_width else 0

        return tuple(at(k - 1) + at(k) for k in range(width))
    # a046899
    if n == 0:
        return (1,)
    prev = _triangle_row(tag, n - 1)
    row = [1]
    for j in range(1, n):
        row.append(row[j - 1] + prev[j])
    row.append(2 * row[n - 1])
    return tuple(row)


def _triangle_support(tag: str, n: int, k: int) -> bool:
    if tag == "angle_brackets":
        return 2 * k <= n
    return k <= n


def _binom(n: int, k: int) -> int:
    return comb(n, k) if k >= 0 else 0


def _triangle_closed(tag: str, n: int, k: int) -> int:
    if tag == "catalan_triangle":
        return _binom(n + k, k) - _binom(n + k, k - 1)
    if tag == "angle_brackets":
        return _binom(n, k) - _binom(n, k - 1)
    return comb(n + k, k)


def triangle_entry(tag: str, n: int, k: int) -> int:
    """Triangle entry computed from the closed form and, independently, the
    defining recurrence; both routes must agree."""
    if tag not in TRIANGLE_TAGS:
        raise ValueError(f"unknown triangle {tag!r}")
    _check_index("n", n)
    _check_index("k", k)
    if not _triangle_support(tag, n, k):
        raise ValueError(f"({n}, {k}) outside the support of {tag}")
    closed = _triangle_closed(tag, n, k)
    recurrent = _bottom_up(_triangle_row, tag, n)[k]
    if closed != recurrent:
        raise ArithmeticError(f"triangle routes disagree at {tag}({n}, {k})")
    return closed


@dataclass(frozen=True)
class TriangleSpec:
    tag: str

    def __post_init__(self):
        if self.tag not in TRIANGLE_TAGS:
            raise ValueError(f"unknown triangle {self.tag!r}")

    def width(self, n: int) -> int:
        return n // 2 + 1 if self.tag == "angle_brackets" else n + 1

    def entry(self, n: int, k: int) -> int:
        return triangle_entry(self.tag, n, k)

    def row(self, n: int) -> tuple:
        return tuple(self.entry(n, k) for k in range(self.width(n)))


# ---------------------------------------------------------------------------
# generating functions


def gf_coeffs(family: str, order: int, b=None) -> PowerSeries:
    """Truncated generating function: 'catalan' for the Catalan series C, or
    'Bb' for C/(1 - b*x*C) with a numeric parameter b."""
    _check_index("order", order)
    if order < 1:
        raise ValueError("order must be at least 1")
    if family == "catalan":
        coeffs = [Fraction(1)]
        for n in range(order - 1):
            coeffs.append(sum((coeffs[i] * coeffs[n - i] for i in range(n + 1)), Fraction(0)))
        series = PowerSeries(coeffs)
        if series_mul(series, series).coeffs[: order - 1] != tuple(
            coeffs[1:]
        ):
            raise ArithmeticError("catalan series fails its defining equation")
        return series
    if family == "Bb":
        if b is None:
            raise ValueError("family 'Bb' requires the parameter b")
        bf = _as_fraction(b)
        c = gf_coeffs("catalan", order)
        xc = PowerSeries((Fraction(0),) + c.coeffs[: order - 1])
        one = PowerSeries([Fraction(1)] + [Fraction(0)] * (order - 1))
        return series_mul(c, series_reciprocal(one - bf * xc))
    raise ValueError(f"unknown generating function family {family!r}")


# ---------------------------------------------------------------------------
# basis expansion identities


def verify_basis_expansion(kind: str, n_max: int) -> VerificationReport:
    """Check that the monomials expand in the named basis with the predicted
    triangle coefficients: x^n as an angle-bracket combination of the
    Fibonacci-type polynomials, or a binomial combination of the Lucas-type
    ones."""
    if kind not in ("fibonacci", "lucas"):
        raise ValueError(f"unknown basis expansion kind {kind!r}")
    report = VerificationReport(
        suite=f"basis-{kind}", grid={"n_max": n_max}
    )
    for n in range(n_max + 1):
        acc = Poly.const(0)
        for k in range(n // 2 + 1):
            if kind == "fibonacci":
                coeff = triangle_entry("angle_brackets", n, k)
            else:
                coeff = comb(n, k)
            acc = acc + coeff * named_poly(kind, n - 2 * k)
        expected = X**n
        report.add(
            n=n,
            ok=(acc == expected),
            lhs=acc.render(),
            rhs=expected.render(),
        )
    return _nonempty(report)
