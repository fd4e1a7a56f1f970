import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifted_hankel.exact_core import (
    B,
    X,
    Poly,
    PowerSeries,
    binom_poly,
    det_exact,
    det_poly,
    leading_minors,
    series_mul,
    series_reciprocal,
)
from shifted_hankel.hankel_identities import det_poly_Hb


def laplace_det(rows):
    """Independent oracle: cofactor expansion along the first row.

    Works over any commutative ring elements supporting +, -, *.
    """
    k = len(rows)
    if k == 0:
        return F(1)
    if k == 1:
        return rows[0][0]
    total = None
    for j in range(k):
        entry = rows[0][j]
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * laplace_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


small_ints = st.integers(min_value=-9, max_value=9)


def int_matrix(max_k=4):
    return st.integers(min_value=0, max_value=max_k).flatmap(
        lambda k: st.lists(
            st.lists(small_ints, min_size=k, max_size=k), min_size=k, max_size=k
        )
    )


class TestDetExact:
    def test_empty_matrix_is_one(self):
        assert det_exact([]) == F(1)

    def test_one_by_one(self):
        assert det_exact([[F(7, 3)]]) == F(7, 3)

    def test_catalan_window(self):
        assert det_exact([[2, 5], [5, 14]]) == 3

    def test_middle_binomial_window(self):
        assert det_exact([[1, 1], [1, 2]]) == 1

    def test_rational_entries(self):
        m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
        assert det_exact(m) == laplace_det(m)

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0

    def test_zero_pivot_needs_row_swap(self):
        m = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        assert det_exact(m) == laplace_det(m)

    def test_seven_by_seven_against_oracle(self):
        m = [[(3 * i + 5 * j * j + i * j) % 11 - 5 for j in range(7)] for i in range(7)]
        assert det_exact(m) == laplace_det([[F(v) for v in row] for row in m])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            det_exact([[0.5]])

    @given(int_matrix())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, m):
        expected = laplace_det([[F(v) for v in row] for row in m])
        assert det_exact(m) == expected


class TestLeadingMinors:
    def test_empty_matrix_has_none(self):
        assert leading_minors([]) == []

    def test_catalan_window(self):
        # blocks [2], [[2, 5], [5, 14]], and the 3x3 window with 42 ... 132
        rows = [[2, 5, 14], [5, 14, 42], [14, 42, 132]]
        assert leading_minors(rows) == [2, 3, 4]

    def test_zero_pivot_ends_the_pass(self):
        assert leading_minors([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == [1, 0]
        assert leading_minors([[1, 2], [2, 4]]) == [1, 0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            leading_minors([[1, 2]])

    @given(st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=k, max_size=k)
    ))
    @settings(max_examples=60, deadline=None)
    def test_each_minor_is_the_block_determinant(self, m):
        minors = leading_minors(m)
        assert 1 <= len(minors) <= len(m)
        if len(minors) < len(m):
            assert minors[-1] == 0
        for r, minor in enumerate(minors, 1):
            assert minor == det_exact([row[:r] for row in m[:r]])


class TestDetPoly:
    def test_empty_matrix_is_one(self):
        assert det_poly([]) == Poly.const(1)

    def test_one_by_one(self):
        p = 1 + B * X
        assert det_poly([[p]]) == p

    def test_binomial_matrix_n2(self):
        # det [[C(x,0), C(x+1,2)], [C(x+1,0), C(x+2,2)]] = x + 1
        m = [
            [binom_poly(X, 0), binom_poly(X + 1, 2)],
            [binom_poly(X + 1, 0), binom_poly(X + 2, 2)],
        ]
        assert det_poly(m) == X + 1

    def test_mixed_scalar_entries_coerced(self):
        assert det_poly([[2, X], [1, X]]) == X

    def test_against_oracle_small(self):
        m = [
            [X + 1, B, Poly.const(2)],
            [B * X, X - 1, Poly.const(0)],
            [Poly.const(1), X, B + 3],
        ]
        assert det_poly(m) == laplace_det(m)

    def test_seven_by_seven_matches_oracle(self):
        m = [
            [Poly.const(i + j + 1) + (X if i == j else Poly.const(0)) for j in range(7)]
            for i in range(7)
        ]
        assert det_poly(m) == laplace_det(m)

    def test_anti_diagonal_zero_pivots(self):
        # anti-diagonal of x's: zero pivots force row swaps
        k = 7
        m = [[X if i + j == k - 1 else Poly.const(0) for j in range(k)] for i in range(k)]
        assert det_poly(m) == laplace_det(m)

    def test_singular_poly_matrix(self):
        m = [[X + i + j for j in range(7)] for i in range(7)]
        assert det_poly(m) == Poly.const(0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_poly([[X]] * 2)

    @given(
        st.lists(
            st.lists(
                st.tuples(small_ints, small_ints, small_ints), min_size=3, max_size=3
            ),
            min_size=3,
            max_size=3,
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_evaluation_commutes(self, triples, xv, bv):
        m = [[c0 + c1 * X + c2 * B for (c0, c1, c2) in row] for row in triples]
        d = det_poly(m)
        pointwise = det_exact(
            [[e.subs(x=xv, b=bv).constant() for e in row] for row in m]
        )
        assert d.subs(x=xv, b=bv).constant() == pointwise


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def poly_matrices(draw, max_order, variables):
    """Square matrices over Q[b, x] whose entries have degree <= 2 in each
    of the given variables, with zero entries and at times a zero row.
    x-only and b-only matrices make det_poly pack x and b respectively."""
    k = draw(st.integers(min_value=0, max_value=max_order))
    keys = [
        (dx, db)
        for dx in range(3 if "x" in variables else 1)
        for db in range(3 if "b" in variables else 1)
    ]
    # integer pairs draw far faster than st.fractions; about one entry in
    # four is zero
    term = st.tuples(st.sampled_from(keys), small_ints, st.integers(min_value=1, max_value=4))
    entry = st.tuples(st.integers(min_value=0, max_value=3), st.lists(term, min_size=1, max_size=3)).map(
        lambda pair: Poly({key: F(p, q) for key, p, q in pair[1]}) if pair[0] else Poly.const(0)
    )
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    if k and draw(st.integers(min_value=0, max_value=5)) == 0:
        rows[draw(st.integers(min_value=0, max_value=k - 1))] = [Poly.const(0)] * k
    return rows


@pytest.mark.parametrize("variables", ["xb", "x", "b"])
class TestDetPolyDifferential:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), xv=small_fractions, bv=small_fractions)
    def test_matches_determinant_of_the_evaluated_matrix(self, variables, data, xv, bv):
        m = data.draw(poly_matrices(9, variables))
        pointwise = det_exact([[e.subs(x=xv, b=bv).constant() for e in row] for row in m])
        assert det_poly(m).subs(x=xv, b=bv).constant() == pointwise

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_cofactor_expansion(self, variables, data):
        m = data.draw(poly_matrices(5, variables))
        assert det_poly(m) == laplace_det(m)


poly_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    max_size=6,
)


def termwise_product(a: dict, b: dict) -> dict:
    out = {}
    for (xa, ba), va in a.items():
        for (xb, bb), vb in b.items():
            key = (xa + xb, ba + bb)
            out[key] = out.get(key, F(0)) + va * vb
    return {key: v for key, v in out.items() if v}


class TestPolyProductDifferential:
    @given(poly_coeffs, poly_coeffs)
    @settings(max_examples=80, deadline=None)
    def test_matches_termwise_fraction_product(self, a, b):
        p, q = Poly(a), Poly(b)
        product = p * q
        assert product._c == termwise_product(p._c, q._c)
        assert all(isinstance(v, F) for v in product._c.values())

    @given(poly_coeffs, small_fractions)
    @settings(max_examples=40, deadline=None)
    def test_cancelling_terms_are_dropped(self, a, c):
        # (p*(x - c)) * (x + c) = p*(x^2 - c^2): the middle terms cancel
        p = Poly(a)
        lhs = p * (X - c) * (X + c)
        assert lhs._c == termwise_product(p._c, (X * X - c * c)._c)
        assert (p * (B - c) - p * B + p * c).is_zero

    def test_products_that_vanish(self):
        assert ((X + B) * (X - B))._c == {(2, 0): 1, (0, 2): -1}
        assert (Poly.const(0) * (X + F(1, 3))).is_zero
        assert ((X * F(2, 3)) * Poly.const(F(3, 2)))._c == {(1, 0): 1}


class TestBinomPoly:
    def test_choose_zero(self):
        assert binom_poly(X, 0) == Poly.const(1)

    def test_linear(self):
        assert binom_poly(2 * X + 2, 1) == 2 * X + 2

    def test_quadratic_value(self):
        p = binom_poly(X + 2, 2)
        assert p == (X + 2) * (X + 1) * F(1, 2)
        assert p.subs(x=2).constant() == 6

    def test_integer_argument(self):
        assert binom_poly(5, 2) == Poly.const(10)

    @given(
        st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=8)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_comb_at_integers(self, m, r):
        assert binom_poly(X, r).subs(x=m).constant() == math.comb(m, r)


class TestPoly:
    def test_zero_and_degrees(self):
        z = Poly.const(0)
        assert z.is_zero
        assert z.deg_x == -1 and z.deg_b == -1
        p = B * X**3 + 1
        assert p.deg_x == 3 and p.deg_b == 1

    def test_arithmetic_identities(self):
        p = 2 * X**2 - B * X + 3
        q = X - B
        assert (p + q) - q == p
        assert p * q == q * p
        assert (p + q) * q == p * q + q * q
        assert p * Poly.const(0) == Poly.const(0)
        assert (-p) + p == Poly.const(0)

    def test_pow(self):
        assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1
        assert (X + B) ** 0 == Poly.const(1)

    def test_subs_numbers(self):
        p = B * X + X**2
        assert p.subs(x=2) == 2 * B + 4
        assert p.subs(x=2, b=F(1, 2)).constant() == F(5)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 3)),
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            max_size=8,
        ),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_subs_matches_termwise_evaluation(self, coeffs, xv, bv):
        p = Poly(coeffs)
        at_x = Poly.const(0)
        at_b = Poly.const(0)
        at_both = F(0)
        for dx, db, v in p.terms():
            at_x += Poly({(0, db): v * xv**dx})
            at_b += Poly({(dx, 0): v * bv**db})
            at_both += v * xv**dx * bv**db
        assert p.subs(x=xv) == at_x
        assert p.subs(b=bv) == at_b
        assert p.subs(x=xv, b=bv) == Poly.const(at_both)
        assert p.subs(x=int(xv)) == p.subs(x=Poly.const(int(xv)))

    @given(poly_coeffs, st.lists(small_fractions, min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_repeated_scalar_subs_matches_a_fresh_poly(self, coeffs, points):
        # evaluation reuses integer slices cached on the polynomial
        p = Poly(coeffs)
        for v in points:
            assert p.subs(x=v) == Poly(coeffs).subs(x=v)
            assert p.subs(b=v) == Poly(coeffs).subs(b=v)
            assert p.subs(x=v, b=1 - v) == Poly(coeffs).subs(x=v, b=1 - v)

    def test_subs_poly(self):
        p = X**2 + B
        assert p.subs(x=X - 1) == X**2 - 2 * X + 1 + B

    def test_shift_x(self):
        assert (X**2).shift_x(-1) == X**2 - 2 * X + 1
        half = (2 * X + 1).shift_x(F(-1, 2))
        assert half == 2 * X

    def test_parity_compression(self):
        f4 = X**4 - 3 * X**2 + 1
        assert f4.compress_even_x() == X**2 - 3 * X + 1
        g = X**3 - 2 * X
        assert g.compress_odd_x() == X - 2
        with pytest.raises(ValueError):
            (X + 1).compress_even_x()
        with pytest.raises(ValueError):
            (X**2).compress_odd_x()

    def test_exact_div(self):
        assert ((X + 1) * (X + 2)).exact_div(X + 1) == X + 2
        num = (B + 2) * (X + B) * (X + B)
        assert num.exact_div(B + 2) == (X + B) * (X + B)
        assert (6 * X).exact_div(Poly.const(4)) == F(3, 2) * X
        with pytest.raises(ValueError):
            (X**2 + 1).exact_div(X + 1)

    def test_constant_extraction(self):
        assert Poly.const(F(-3, 2)).constant() == F(-3, 2)
        with pytest.raises(ValueError):
            (X + 1).constant()

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            X + 0.5
        with pytest.raises(TypeError):
            Poly.const(0.5)

    def test_hashable_and_equal(self):
        assert hash(X + 1) == hash(Poly.const(1) + X)
        assert len({X + 1, 1 + X, X}) == 2


class TestRendering:
    def test_golden_strings(self):
        cases = [
            (B * X + 1, "b*x + 1"),
            (X**2 - 2, "x^2 - 2"),
            (Poly.const(0), "0"),
            (Poly.const(F(-3, 2)), "-3/2"),
            (-X, "-x"),
            (F(1, 3) * B**2 * X**3 - F(1, 2) * X, "1/3*b^2*x^3 - 1/2*x"),
            (X * B + X**2 + B**2, "x^2 + b*x + b^2"),
            (2 * B**3, "2*b^3"),
        ]
        for poly, text in cases:
            assert poly.render() == text

    def test_order_is_x_major_then_b(self):
        p = 1 + X + B + B * X + B**2 * X
        assert p.render() == "b^2*x + b*x + x + b + 1"


class TestPowerSeries:
    def test_geometric_reciprocal(self):
        one_minus_x = PowerSeries([1, -1, 0, 0])
        assert series_reciprocal(one_minus_x) == PowerSeries([1, 1, 1, 1])

    def test_mul_truncates(self):
        s = PowerSeries([1, 1, 0])
        assert series_mul(s, s) == PowerSeries([1, 2, 1])
        t = PowerSeries([0, 0, 1])
        assert series_mul(t, t) == PowerSeries([0, 0, 0])

    def test_reciprocal_identity(self):
        s = PowerSeries([F(2), F(1, 3), -1, F(5, 7), 0, 2])
        r = series_reciprocal(s)
        prod = series_mul(s, r)
        assert prod == PowerSeries([1, 0, 0, 0, 0, 0])

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="non-unit"):
            series_reciprocal(PowerSeries([0, 1, 2]))

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_mul(PowerSeries([1, 2]), PowerSeries([1, 2, 3]))

    def test_add_sub_scalar(self):
        s = PowerSeries([1, 2, 3])
        t = PowerSeries([0, 1, 1])
        assert s + t == PowerSeries([1, 3, 4])
        assert s - t == PowerSeries([1, 1, 2])
        assert 2 * t == PowerSeries([0, 2, 2])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            PowerSeries([0.5, 1])

    @given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_reciprocal_roundtrip(self, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        s = PowerSeries(coeffs)
        identity = [F(1)] + [F(0)] * (len(coeffs) - 1)
        assert series_mul(s, series_reciprocal(s)) == PowerSeries(identity)


# polynomials with rational coefficients, the zero polynomial and constants
# among them, and exact shifts: integers, fractions and 0
shift_polys = st.one_of(
    poly_coeffs,
    st.dictionaries(st.just((0, 0)), st.fractions(min_value=-9, max_value=9, max_denominator=6)),
).map(Poly)
shifts = st.one_of(
    st.just(0),
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)


class TestIntegerShift:
    @given(shift_polys, shifts)
    @settings(max_examples=80, deadline=None)
    def test_matches_substituting_x_plus_beta(self, p, beta):
        # subs with a Poly value runs Horner with Poly products, a route
        # shift_x no longer shares
        assert p.shift_x(beta) == p.subs(x=X + beta)

    @given(shift_polys, shifts, shifts)
    @settings(max_examples=60, deadline=None)
    def test_shifts_compose(self, p, a, c):
        assert p.shift_x(a).shift_x(c) == p.shift_x(a + c)

    def test_zero_and_constants(self):
        assert Poly.const(0).shift_x(F(-1, 2)).is_zero
        assert Poly.const(F(7, 3)).shift_x(5) == Poly.const(F(7, 3))
        assert (B * F(2, 9)).shift_x(F(1, 3)) == B * F(2, 9)

    def test_rejects_inexact_shifts(self):
        with pytest.raises(TypeError):
            X.shift_x(0.5)
        with pytest.raises(TypeError):
            X.shift_x(True)


binom_arguments = st.one_of(
    st.just(0),
    st.integers(min_value=-5, max_value=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.tuples(st.sampled_from([X, B, X + B]), small_ints, small_fractions).map(
        lambda t: t[0] * t[1] + t[2]
    ),
    poly_coeffs.map(Poly),
)


class TestBinomPolyDifferential:
    @given(binom_arguments, st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_product_of_poly_factors(self, argument, r):
        arg = argument if isinstance(argument, Poly) else Poly.const(argument)
        falling = Poly.const(1)
        for t in range(r):
            falling = falling * (arg - t)
        assert binom_poly(argument, r) == falling * F(1, math.factorial(r))


class TestIntegerRoutesMakeNoPolyProducts:
    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        original = Poly.__mul__

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        monkeypatch.setattr(Poly, "__rmul__", counted)
        return calls

    def test_binom_poly(self, products):
        assert binom_poly(X + 5, 12).subs(x=10).constant() == math.comb(15, 12)
        assert products == []

    def test_half_shift(self, products):
        hb = det_poly_Hb(6)
        products.clear()
        hb.shift_x(F(-1, 2))
        assert products == []
