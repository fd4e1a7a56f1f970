"""Shifted Hankel determinant tables and the closed-form machinery around
them.

The central objects are the determinants u(n, k) = det(a_{n+i+j}) for
i, j = 0..k-1 of a moment sequence, the polynomial families that evaluate
them in closed form, the three-term condensation relation every such table
satisfies, and suite runners that verify each identity cell by cell over a
finite grid. All arithmetic is exact.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Callable, Optional, Union

from .exact_core import (
    B,
    Poly,
    X,
    _as_fraction,
    _check_index,
    binom_poly,
    det_exact,
    det_poly,
    leading_minors,
)
from .ortho_moments import JacobiSpec, MomentSequence, moment, ortho_poly, sequence_term
from .report import VerificationReport, _nonempty

__all__ = [
    "HankelTable",
    "INDETERMINATE_RATIO",
    "PolyFamily",
    "V_poly",
    "condensation_check",
    "condensation_reconstruct",
    "det_poly_Hb",
    "first_hankels_from_jacobi",
    "h_poly",
    "hankel_det",
    "hankel_row",
    "normalized_shifted",
    "product_poly_H",
    "product_poly_H2",
    "theorem10_check",
    "verify_theorem",
]


class _IndeterminateRatio:
    """Marker for a 0/0 normalization: determinant and normalizer both vanish."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INDETERMINATE_RATIO"


INDETERMINATE_RATIO = _IndeterminateRatio()


def _det_from_terms(seq: MomentSequence, n: int, k: int):
    rows = [[seq.term(n + i + j) for j in range(k)] for i in range(k)]
    if seq.is_numeric:
        return det_exact(rows)
    return det_poly(rows)


@dataclass
class HankelTable:
    """Memoized table of shifted determinants for one moment sequence.

    A numeric table fills a row's cells k >= 2 by one Bareiss pass, whose
    pivots are the row's leading minors; cells past a zero pivot fall back
    to one pivoting determinant each. A table built by reconstruction
    carries no source; it only answers for the cells that were filled in.
    """

    source: Optional[MomentSequence] = None
    values: dict = field(default_factory=dict)
    # row n -> (order of its last Bareiss pass, minors that pass produced)
    passes: dict = field(default_factory=dict, init=False)

    def value(self, n: int, k: int):
        key = (n, k)
        if key not in self.values:
            if self.source is None:
                raise ValueError(
                    f"cell ({n}, {k}) is outside the reconstructed region"
                )
            if k >= 2 and self.source.is_numeric:
                self._fill_row(n, k)
            if key not in self.values:
                self.values[key] = _det_from_terms(self.source, n, k)
        return self.values[key]

    def _fill_row(self, n: int, k: int) -> None:
        order, reached = self.passes.get(n, (0, 0))
        if reached < order:
            return  # the last pass stopped at a zero pivot
        # doubling the order makes an ascending scan of k cost O(log k) passes
        order = max(k, 2 * order)
        terms = [self.source.term(n + i) for i in range(2 * order - 1)]
        d = lcm(*(t.denominator for t in terms))
        scaled = [t.numerator * (d // t.denominator) for t in terms]
        minors = leading_minors([scaled[i : i + order] for i in range(order)])
        for r, minor in enumerate(minors, 1):
            self.values.setdefault((n, r), Fraction(minor, d**r))
        self.passes[n] = (order, len(minors))


_TABLES: dict = {}


def hankel_det(seq: MomentSequence, n: int, k: int):
    """det(a_{n+i+j})_{i,j=0..k-1} for the terms a of seq; exact, memoized."""
    _check_index("n", n)
    _check_index("k", k)
    table = _TABLES.get(seq)
    if table is None:
        table = _TABLES.setdefault(seq, HankelTable(seq))
    return table.value(n, k)


def hankel_row(seq: MomentSequence, n: int, ks) -> list:
    """[hankel_det(seq, n, k) for k in ks], with row n filled at its widest
    cell first: a scan of k = 0..K runs one Bareiss pass of order K instead
    of the doubling passes that single-cell queries run."""
    ks = list(ks)
    _check_index("n", n)
    for k in ks:
        _check_index("k", k)
    if not ks:
        return []
    top = max(ks)
    widest = hankel_det(seq, n, top)
    return [widest if k == top else hankel_det(seq, n, k) for k in ks]


# ---------------------------------------------------------------------------
# closed-form polynomial families


def _linear_product(factors) -> tuple:
    """prod (a*x + c)/c over the pairs (a, c), as dense integer coefficients
    in ascending powers of x and one denominator."""
    coeffs = [1]
    den = 1
    for a, c in factors:
        coeffs = [c * lo + a * hi for lo, hi in zip(coeffs + [0], [0] + coeffs)]
        den *= c
    return coeffs, den


def _dense_poly(coeffs: list, den: int) -> Poly:
    return Poly({(i, 0): Fraction(v, den) for i, v in enumerate(coeffs)})


@lru_cache(maxsize=None, typed=True)
def product_poly_H(n: int) -> Poly:
    """Closed form for the Catalan table column n, computed by four distinct
    product formulas that must agree."""
    _check_index("n", n)
    # binom(2x+2j, j) / binom(2j, j) as a ratio of falling factorials
    quotient = _linear_product(
        (2, 2 * j - t) for j in range(1, n) for t in range(j)
    )
    double = _linear_product(
        (2, i + j) for i in range(1, n) for j in range(i, n)
    )
    powered = _linear_product(
        (2, step)
        for step in range(2, 2 * n - 1)
        for _ in range(min(step // 2, (2 * n - step) // 2))
    )
    nested = _linear_product(
        (2, i) for j in range(1, n // 2 + 1) for i in range(2 * j, 2 * n - 2 * j + 1)
    )
    coeffs, den = double
    for other, other_den in (quotient, powered, nested):
        if len(other) != len(coeffs) or any(
            u * other_den != v * den for u, v in zip(coeffs, other)
        ):
            raise ArithmeticError(f"product forms disagree at n={n}")
    return _dense_poly(coeffs, den)


def _hb_entry(i: int, j: int, b_val: Poly) -> Poly:
    return binom_poly(X + i + j, 2 * j) + b_val * binom_poly(X + i + j, 2 * j + 1)


@lru_cache(maxsize=None, typed=True)
def det_poly_Hb(n: int) -> Poly:
    """Bivariate closed form: determinant of the binomial entry matrix with
    a linear parameter column weight."""
    _check_index("n", n)
    rows = [[_hb_entry(i, j, B) for j in range(n)] for i in range(n)]
    return det_poly(rows)


@lru_cache(maxsize=None, typed=True)
def _det_Hb_at(n: int, b_value: Fraction) -> Poly:
    # specializing the entries commutes with the determinant
    _check_index("n", n)
    bp = Poly.const(b_value)
    rows = [[_hb_entry(i, j, bp) for j in range(n)] for i in range(n)]
    return det_poly(rows)


@lru_cache(maxsize=None, typed=True)
def product_poly_H2(n: int) -> Poly:
    """Closed product form at parameter value 2; cross-checked against the
    entry determinant at 2 and the doubled half-shift at 1."""
    _check_index("n", n)
    prod = _dense_poly(
        *_linear_product(
            (2, i)
            for j in range((n - 1) // 2 + 1)
            for i in range(2 * j + 1, 2 * n - 2 * j)
        )
    )
    direct = _det_Hb_at(n, Fraction(2))
    half_shift = 2**n * _det_Hb_at(n, Fraction(1)).shift_x(Fraction(-1, 2))
    if prod != direct or prod != half_shift:
        raise ArithmeticError(f"doubled-parameter routes disagree at n={n}")
    return prod


def _v_entry(i: int, j: int) -> Poly:
    # the raw entry has a factor (x+i+j) in the binomial that cancels the
    # denominator; build the cancelled form so no polynomial division occurs
    if j == 0:
        return Poly.const(2) + B * (2 * X + 2 * i - 1)
    top = X + i + j - 1
    even_part = binom_poly(top, 2 * j - 1) * (2 * X + 2 * i) * Fraction(1, 2 * j)
    odd_part = B * binom_poly(top, 2 * j) * (2 * X + 2 * i - 1) * Fraction(1, 2 * j + 1)
    return even_part + odd_part


@lru_cache(maxsize=None, typed=True)
def V_poly(n: int) -> Poly:
    """Half-integer shift of the bivariate family, scaled to polynomial form;
    computed by substitution and by its own entry determinant."""
    _check_index("n", n)
    from_shift = 2**n * det_poly_Hb(n).shift_x(Fraction(-1, 2))
    rows = [[_v_entry(i, j) for j in range(n)] for i in range(n)]
    from_det = det_poly(rows)
    if from_shift != from_det:
        raise ArithmeticError(f"half-shift routes disagree at n={n}")
    return from_det


@lru_cache(maxsize=None, typed=True)
def h_poly(n: int) -> Poly:
    """Closed form for the middle-binomial table column n."""
    _check_index("n", n)
    return _dense_poly(
        *_linear_product((1, k) for k in range(1, n) for _ in range(min(k, n - k)))
    )


_FAMILY_FUNCS = {
    "H": product_poly_H,
    "Hb": det_poly_Hb,
    "H2": product_poly_H2,
    "V": V_poly,
    "h": h_poly,
}


@dataclass(frozen=True)
class PolyFamily:
    """One of the closed-form families, addressed by kind tag."""

    kind: str

    def __post_init__(self):
        if self.kind not in _FAMILY_FUNCS:
            raise ValueError(f"unknown polynomial family kind {self.kind!r}")

    def member(self, n: int) -> Poly:
        return _FAMILY_FUNCS[self.kind](n)

    @property
    def twisted(self) -> bool:
        # the middle-binomial family satisfies the alternating-sign variant
        return self.kind == "h"


# ---------------------------------------------------------------------------
# condensation


def condensation_check(family, n_max: int) -> VerificationReport:
    """Verify the three-member product relation of a closed-form family
    symbolically for every n up to n_max."""
    fam = family if isinstance(family, PolyFamily) else PolyFamily(family)
    report = VerificationReport(
        suite=f"condensation-{fam.kind}", grid={"n_max": n_max}
    )
    for n in range(n_max + 1):
        p_n = fam.member(n)
        p_mid = fam.member(n + 1)
        p_top = fam.member(n + 2)
        sign = -1 if fam.twisted and n % 2 == 1 else 1
        residual = (
            sign * (p_n * p_top.shift_x(-2))
            - p_n.shift_x(-1) * p_top.shift_x(-1)
            + p_mid.shift_x(-1) ** 2
        )
        report.add(n=n, ok=residual.is_zero, lhs=residual.render(), rhs="0")
    return _nonempty(report)


def condensation_reconstruct(
    row0: Callable[[int], Fraction],
    row1: Callable[[int], Fraction],
    col1: Callable[[int], Fraction],
    n_max: int,
    k_max: int,
) -> HankelTable:
    """Rebuild the full determinant table from its first two rows and second
    column using only the condensation relation.

    Filling u(n, k) consumes u(n-2, k+1), so earlier rows are carried wider;
    boundary callables must answer up to k_max + ceil(n_max / 2).
    """
    half = (n_max + 1) // 2
    values: dict = {}
    for k in range(k_max + half + 1):
        values[(0, k)] = Fraction(row0(k))
        values[(1, k)] = Fraction(row1(k))
    for n in range(2, n_max + 1):
        width = k_max + (n_max - n + 1) // 2
        values[(n, 0)] = Fraction(1)
        if width >= 1:
            values[(n, 1)] = Fraction(col1(n))
        for k in range(2, width + 1):
            numerator = (
                values[(n - 2, k + 1)] * values[(n, k - 1)]
                + values[(n - 1, k)] ** 2
            )
            divisor = values[(n - 2, k)]
            if divisor == 0:
                raise ZeroDivisionError(
                    f"condensation divisor u({n - 2}, {k}) is zero; "
                    f"cannot fill u({n}, {k})"
                )
            quotient = numerator / divisor
            if (
                numerator.denominator == 1
                and divisor.denominator == 1
                and quotient.denominator != 1
            ):
                raise ArithmeticError(
                    f"reconstruction division is not exact at u({n}, {k})"
                )
            values[(n, k)] = quotient
    return HankelTable(values=values)


# ---------------------------------------------------------------------------
# normalized determinants and scans


def normalized_shifted(family: str, b, n: int, k: int):
    """Shifted determinant of the partial-sum family divided by its
    zero-shift value (2-b)^(k-1).

    At b=2 both determinant and normalizer vanish for k >= 2; that case
    returns the INDETERMINATE_RATIO marker instead of a number.
    """
    if family != "Mcap":
        raise ValueError(
            f"normalization is defined for family 'Mcap', not {family!r}"
        )
    if b is None or isinstance(b, Poly):
        bp = B if b is None else b
        num = hankel_det(MomentSequence("Mcap", b=bp), n, k)
        num = num if isinstance(num, Poly) else Poly.const(num)
        scale = (2 - bp) if isinstance(bp, Poly) else Poly.const(2 - bp)
        if k == 0:
            return num * scale
        if k == 1:
            return num
        return num.exact_div(scale ** (k - 1))
    b_val = _as_fraction(b)
    num = hankel_det(MomentSequence("Mcap", b=b_val), n, k)
    if b_val == 2 and k >= 2:
        if num != 0:
            raise ArithmeticError(
                "determinant fails to vanish at the degenerate parameter"
            )
        return INDETERMINATE_RATIO
    if k == 0:
        return num * (2 - b_val)
    return num / (2 - b_val) ** (k - 1)


def _sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def theorem10_check(n_max: int, k_max: int) -> VerificationReport:
    """Scan the middle-binomial determinant table against the closed form.

    Absolute values must match everywhere; the observed sign is compared to
    the fitted law sigma(n,k) = (-1)^(n*k(k-1)/2). Cells where the simpler
    n-independent rule (-1)^(k(k-1)/2) gets the sign wrong are flagged in
    the grid metadata.
    """
    middle = MomentSequence("middle")
    disagreements = []
    report = VerificationReport(
        suite="theorem10",
        grid={
            "n_max": n_max,
            "k_max": k_max,
            "sign_law": "sigma(n,k) = (-1)^(n*k*(k-1)/2)",
            "stated_sign_disagreements": disagreements,
        },
    )
    ks = range(k_max + 1)
    for n in range(n_max + 1):
        for k, det in zip(ks, hankel_row(middle, n, ks)):
            closed = h_poly(n).subs(x=Fraction(k)).constant()
            fitted = -1 if (n * (k * (k - 1) // 2)) % 2 else 1
            stated = -1 if (k * (k - 1) // 2) % 2 else 1
            ok = abs(det) == abs(closed) and det == fitted * abs(closed)
            report.add(n=n, k=k, ok=ok, lhs=det, rhs=fitted * abs(closed))
            if det != stated * abs(closed):
                disagreements.append((n, k))
    return _nonempty(report)


def first_hankels_from_jacobi(spec: JacobiSpec, n: int):
    """Unshifted and once-shifted n-by-n determinants of a family's moments,
    from the recurrence parameters alone; cross-checked against direct
    determinants."""
    t_product = Poly.const(1)
    for i in range(1, n):
        for j in range(i):
            t_product = t_product * spec.t.at(j)
    p_n = ortho_poly(spec, n)
    shifted = (-1) ** n * p_n.subs(x=Fraction(0)) * t_product
    seq = MomentSequence.from_jacobi(spec)
    direct0 = hankel_det(seq, 0, n)
    direct1 = hankel_det(seq, 1, n)
    first: Union[Fraction, Poly] = t_product
    second: Union[Fraction, Poly] = shifted
    if spec.is_numeric:
        first = first.constant()
        second = second.constant()
    if first != direct0 or second != direct1:
        raise ArithmeticError(
            "parameter products disagree with the direct determinants"
        )
    return (first, second)


# ---------------------------------------------------------------------------
# identity suites

_TH4_B_VALUES = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-3, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(4),
)

_SUITE_DEFAULTS = {
    "th1": {"n_max": 8, "k_max": 8},
    "th2": {"n_max": 8},
    "th4": {"n_max": 6, "k_max": 6, "b_values": _TH4_B_VALUES},
    "th5": {"n_max": 8},
    "cor7": {"n_max": 5, "k_max": 5},
    "lemma8": {"n_max": 8, "k_max": 6},
    "eq1_6": {"n_max": 6, "k_max": 6},
    "h1_equals_h0_shift": {"n_max": 8},
}


def _run_th1(report: VerificationReport, n_max: int, k_max: int, b_values):
    catalan = MomentSequence("catalan")
    ks = range(k_max + 1)
    for n in range(n_max + 1):
        closed = product_poly_H(n)
        for k, lhs in zip(ks, hankel_row(catalan, n, ks)):
            rhs = closed.subs(x=Fraction(k)).constant()
            report.add(n=n, k=k, ok=lhs == rhs, lhs=lhs, rhs=rhs)


def _run_th2(report: VerificationReport, n_max: int, k_max, b_values):
    for n in range(n_max + 1):
        rows = [
            [binom_poly(X + i + j, 2 * j) for j in range(n)] for i in range(n)
        ]
        lhs = det_poly(rows)
        rhs = product_poly_H(n)
        report.add(n=n, ok=lhs == rhs, lhs=lhs.render(), rhs=rhs.render())


def _run_th4(report: VerificationReport, n_max: int, k_max: int, b_values):
    ks = range(k_max + 1)
    for b in b_values:
        seq = MomentSequence("Mb", b=b)
        for n in range(n_max + 1):
            closed = det_poly_Hb(n).subs(b=b)
            for k, lhs in zip(ks, hankel_row(seq, n, ks)):
                rhs = closed.subs(x=Fraction(k)).constant()
                report.add(n=n, k=k, b=b, ok=lhs == rhs, lhs=lhs, rhs=rhs)


def _run_th5(report: VerificationReport, n_max: int, k_max, b_values):
    for n in range(n_max + 1):
        closed = product_poly_H2(n)
        at_two = det_poly_Hb(n).subs(b=Fraction(2))
        doubled = 2**n * det_poly_Hb(n).subs(b=Fraction(1)).shift_x(
            Fraction(-1, 2)
        )
        ok = closed == at_two and closed == doubled
        report.add(n=n, ok=ok, lhs=closed.render(), rhs=at_two.render())


def _run_cor7(report: VerificationReport, n_max: int, k_max: int, b_values):
    formal = MomentSequence("Mcap", b=B)
    for n in range(n_max + 1):
        closed = V_poly(n)
        for k in range(1, k_max + 1):
            lhs = hankel_det(formal, n, k)
            rhs = closed.subs(x=Fraction(k)) * (2 - B) ** (k - 1)
            report.add(n=n, k=k, ok=lhs == rhs, lhs=lhs.render(), rhs=rhs.render())
    degenerate = MomentSequence("Mcap", b=Fraction(2))
    ks = range(2, k_max + 1)
    for n in range(n_max + 1):
        for k, lhs in zip(ks, hankel_row(degenerate, n, ks)):
            report.add(n=n, k=k, b=Fraction(2), ok=lhs == 0, lhs=lhs, rhs=0)


def _run_lemma8(report: VerificationReport, n_max: int, k_max: int, b_values):
    from .ortho_moments import lemma8_spec

    spec = lemma8_spec()
    for n in range(n_max + 1):
        lhs = moment(spec, n)
        rhs = sequence_term("Mcap", n, b=B)
        report.add(n=n, ok=lhs == rhs, lhs=lhs.render(), rhs=rhs.render())
    formal = MomentSequence("Mcap", b=B)
    for k in range(1, k_max + 1):
        lhs = hankel_det(formal, 0, k)
        rhs = (2 - B) ** (k - 1)
        report.add(n=0, k=k, ok=lhs == rhs, lhs=lhs.render(), rhs=rhs.render())


def _run_eq1_6(report: VerificationReport, n_max: int, k_max: int, b_values):
    central = MomentSequence("central")
    ks = range(1, k_max + 1)
    for n in range(1, n_max + 1):
        for k, det in zip(ks, hankel_row(central, n, ks)):
            lhs = det / Fraction(2) ** (k - 1)
            rhs = Fraction(2) ** n
            for j in range(1, n):
                rhs *= Fraction(comb(2 * k - 1 + 2 * j, j), comb(2 * j, j))
            report.add(n=n, k=k, ok=lhs == rhs, lhs=lhs, rhs=rhs)


def _run_index_shift(report: VerificationReport, n_max: int, k_max, b_values):
    for n in range(n_max + 1):
        lhs = det_poly_Hb(n).subs(b=Fraction(1))
        rhs = product_poly_H(n + 1)
        report.add(n=n, ok=lhs == rhs, lhs=lhs.render(), rhs=rhs.render())


_SUITE_RUNNERS = {
    "th1": _run_th1,
    "th2": _run_th2,
    "th4": _run_th4,
    "th5": _run_th5,
    "cor7": _run_cor7,
    "lemma8": _run_lemma8,
    "eq1_6": _run_eq1_6,
    "h1_equals_h0_shift": _run_index_shift,
}


def verify_theorem(tag: str, n_max=None, k_max=None, b_values=None) -> VerificationReport:
    """Run one identity suite over its grid; every cell must match exactly.

    Each tag has its own default bounds; passing n_max/k_max/b_values
    narrows or widens the grid.
    """
    if tag not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite tag {tag!r}")
    defaults = _SUITE_DEFAULTS[tag]
    if n_max is None:
        n_max = defaults.get("n_max")
    if k_max is None:
        k_max = defaults.get("k_max")
    if b_values is None:
        b_values = defaults.get("b_values")
    elif "b_values" not in defaults:
        raise ValueError(f"suite {tag} does not take b values")
    else:
        b_values = tuple(_as_fraction(b) for b in b_values)
    grid = {"n_max": n_max}
    if k_max is not None:
        grid["k_max"] = k_max
    if b_values is not None:
        grid["b_values"] = [str(b) for b in b_values]
    report = VerificationReport(suite=tag, grid=grid)
    _SUITE_RUNNERS[tag](report, n_max, k_max, b_values)
    return _nonempty(report)
