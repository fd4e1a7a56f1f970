import sys
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifted_hankel import clear_caches
from shifted_hankel.exact_core import B, IndexTypeError, Poly, PowerSeries, X
from shifted_hankel.ortho_moments import (
    MomentSequence,
    TriangleSpec,
    JacobiSpec,
    expansion_coeffs,
    f_spec,
    fibonacci_spec,
    g_spec,
    gf_coeffs,
    lemma8_spec,
    lucas_spec,
    moment,
    named_poly,
    ortho_poly,
    P_spec,
    param_seq,
    sequence_term,
    triangle_entry,
    verify_basis_expansion,
)


class TestOrthoPoly:
    def test_degree_zero(self):
        assert ortho_poly(fibonacci_spec(), 0) == Poly.const(1)

    def test_first_step_ignores_missing_t(self):
        # p_1 = x - s_0 regardless of t
        assert ortho_poly(P_spec(), 1) == X - B - 1

    def test_fibonacci_three(self):
        assert ortho_poly(fibonacci_spec(), 3) == X**3 - 2 * X

    def test_monic(self):
        for spec in (fibonacci_spec(), f_spec(), g_spec(), P_spec(), lemma8_spec()):
            p = ortho_poly(spec, 7)
            assert p.coeff(7, 0) == 1 and p.deg_x == 7


class TestNamedPoly:
    def test_fibonacci_closed_form(self):
        assert named_poly("fibonacci", 4) == X**4 - 3 * X**2 + 1

    def test_f_and_g(self):
        assert named_poly("f", 1) == X - 1
        assert named_poly("f", 2) == X**2 - 3 * X + 1
        assert named_poly("g", 1) == X - 2
        assert named_poly("g", 2) == X**2 - 4 * X + 3

    def test_lucas(self):
        assert named_poly("lucas", 0) == Poly.const(1)
        assert named_poly("lucas", 1) == X
        assert named_poly("lucas", 2) == X**2 - 2

    def test_P_formal(self):
        assert named_poly("P", 1) == X - B - 1
        assert named_poly("P", 2) == X**2 - (B + 3) * X + 2 * B + 1

    def test_P_numeric(self):
        assert named_poly("P", 2, b=F(2)) == X**2 - 5 * X + 5

    def test_lemma8(self):
        assert named_poly("p_lemma8", 0) == Poly.const(1)
        assert named_poly("p_lemma8", 1) == X - B - 2
        assert named_poly("p_lemma8", 2) == X**2 - (B + 4) * X + 3 * B + 2

    def test_f_is_even_fibonacci_compressed(self):
        for n in range(9):
            assert named_poly("f", n) == named_poly("fibonacci", 2 * n).compress_even_x()

    def test_g_is_odd_fibonacci_compressed(self):
        for n in range(9):
            assert (
                named_poly("g", n)
                == named_poly("fibonacci", 2 * n + 1).compress_odd_x()
            )

    def test_lemma8_from_lucas_compression(self):
        for n in range(1, 8):
            even = named_poly("lucas", 2 * n).compress_even_x()
            odd = named_poly("lucas", 2 * n - 1).compress_odd_x()
            assert named_poly("p_lemma8", n) == even - B * odd

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            named_poly("nope", 2)


class TestExpansionAndMoments:
    def test_row_zero(self):
        assert expansion_coeffs(fibonacci_spec(), 0) == [1]

    def test_fibonacci_row_six_is_angle_bracket_column(self):
        assert expansion_coeffs(fibonacci_spec(), 6) == [5, 0, 9, 0, 5, 0, 1]

    def test_rows_are_monic(self):
        row = expansion_coeffs(g_spec(), 9)
        assert row[-1] == 1

    def test_lemma8_at_one_counts_odd_central_binomials(self):
        spec = lemma8_spec(F(1))
        assert [moment(spec, n) for n in range(4)] == [1, 3, 10, 35]
        assert all(
            moment(spec, n) == comb(2 * n + 1, n) for n in range(10)
        )

    def test_catalan_moments(self):
        assert moment(f_spec(), 4) == 14
        assert [moment(f_spec(), n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_shifted_catalan_moments(self):
        assert moment(g_spec(), 3) == 14
        assert [moment(g_spec(), n) for n in range(6)] == [1, 2, 5, 14, 42, 132]

    def test_lemma8_formal_moment(self):
        assert moment(lemma8_spec(), 2) == B**2 + 3 * B + 6

    def test_moments_match_closed_forms_formal(self):
        for n in range(9):
            assert moment(P_spec(), n) == sequence_term("Mb", n, b=B)
            assert moment(lemma8_spec(), n) == sequence_term("Mcap", n, b=B)

    def test_fibonacci_moments_vanish_at_odd(self):
        for n in range(12):
            m = moment(fibonacci_spec(), n)
            if n % 2:
                assert m == 0

    def test_lucas_even_moments_are_central_binomials(self):
        for n in range(7):
            assert moment(lucas_spec(), 2 * n) == comb(2 * n, n)

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_specialization_commutes_with_moment(self, n):
        formal = moment(P_spec(), n)
        numeric = moment(P_spec(F(3, 2)), n)
        assert formal.subs(b=F(3, 2)).constant() == numeric


class TestOrthogonality:
    @pytest.mark.parametrize(
        "spec",
        [fibonacci_spec(), f_spec(), g_spec(), lucas_spec(), P_spec(), lemma8_spec()],
        ids=["fibonacci", "f", "g", "lucas", "P", "lemma8"],
    )
    def test_functional_annihilates_offdiagonal_products(self, spec):
        n_max = 6
        polys = [ortho_poly(spec, n) for n in range(n_max + 1)]
        nmoments = [moment(spec, r) for r in range(2 * n_max + 1)]

        def functional(p):
            total = Poly.const(0)
            for r in range(p.deg_x + 1):
                total = total + p.x_coefficient(r) * nmoments[r]
            return total

        t_prod = Poly.const(1)
        for n in range(n_max + 1):
            for m in range(n, n_max + 1):
                value = functional(polys[n] * polys[m])
                if n != m:
                    assert value == Poly.const(0), (n, m)
            assert functional(polys[n] * polys[n]) == t_prod
            t_prod = t_prod * spec.t.at(n)


class TestSequenceTerm:
    def test_catalan(self):
        assert [sequence_term("catalan", n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_shifted_catalan(self):
        assert sequence_term("shifted_catalan", 4) == 42

    def test_central_and_middle(self):
        assert sequence_term("central", 4) == 70
        assert [sequence_term("middle", n) for n in range(8)] == [1, 1, 2, 3, 6, 10, 20, 35]

    def test_Mb_formal(self):
        assert sequence_term("Mb", 3, b=B) == 5 + 5 * B + 3 * B**2 + B**3

    def test_Mb_fine_numbers(self):
        assert [sequence_term("Mb", n, b=F(-1)) for n in range(6)] == [1, 0, 1, 2, 6, 18]

    def test_Mb_at_two(self):
        assert sequence_term("Mb", 2, b=F(2)) == 10

    def test_Mcap_powers_of_four(self):
        assert sequence_term("Mcap", 3, b=F(2)) == 64
        assert all(
            sequence_term("Mcap", n, b=F(2)) == 4**n for n in range(13)
        )

    def test_Mcap_at_zero_is_central(self):
        for n in range(10):
            assert sequence_term("Mcap", n, b=F(0)) == comb(2 * n, n)

    def test_b_required(self):
        with pytest.raises(ValueError):
            sequence_term("Mb", 3)

    def test_moment_sequence_object(self):
        seq = MomentSequence("catalan")
        assert [seq.term(n) for n in range(5)] == [1, 1, 2, 5, 14]
        jac = MomentSequence.from_jacobi(f_spec())
        assert [jac.term(n) for n in range(5)] == [1, 1, 2, 5, 14]
        mb = MomentSequence("Mb", b=F(2))
        assert mb.term(2) == 10


class TestTriangles:
    def test_catalan_triangle_rows(self):
        assert [triangle_entry("catalan_triangle", 4, k) for k in range(5)] == [1, 4, 9, 14, 14]
        assert [triangle_entry("catalan_triangle", 0, 0)] == [1]

    def test_catalan_row_sums_are_catalan(self):
        for n in range(9):
            total = sum(triangle_entry("catalan_triangle", n, k) for k in range(n + 1))
            assert total == sequence_term("catalan", n + 1)

    def test_angle_bracket_row_six(self):
        assert [triangle_entry("angle_brackets", 6, k) for k in range(4)] == [1, 5, 9, 5]

    def test_a046899_row_four(self):
        assert [triangle_entry("a046899", 4, j) for j in range(5)] == [1, 5, 15, 35, 70]

    def test_a046899_partial_sums_give_next_row(self):
        for n in range(8):
            acc = 0
            for j in range(n + 1):
                acc += triangle_entry("a046899", n, j)
                assert acc == triangle_entry("a046899", n + 1, j)

    def test_out_of_support(self):
        with pytest.raises(ValueError):
            triangle_entry("catalan_triangle", 2, 3)
        with pytest.raises(ValueError):
            triangle_entry("angle_brackets", 4, 3)
        with pytest.raises(ValueError):
            triangle_entry("a046899", 3, -1)

    def test_triangle_spec_rows(self):
        tri = TriangleSpec("catalan_triangle")
        assert tri.row(3) == (1, 3, 5, 5)


class TestGeneratingFunctions:
    def test_catalan_series(self):
        s = gf_coeffs("catalan", 6)
        assert s == PowerSeries([1, 1, 2, 5, 14, 42])

    def test_Bb_matches_Mb(self):
        for b in (F(-1), F(2), F(3)):
            s = gf_coeffs("Bb", 9, b=b)
            expected = [sequence_term("Mb", n, b=b) for n in range(9)]
            assert list(s.coeffs) == expected

    def test_Bb_at_zero_is_catalan(self):
        assert gf_coeffs("Bb", 12, b=F(0)) == gf_coeffs("catalan", 12)

    def test_Bb_needs_b(self):
        with pytest.raises(ValueError):
            gf_coeffs("Bb", 5)


class TestBasisExpansion:
    def test_fibonacci_expansion(self):
        report = verify_basis_expansion("fibonacci", 12)
        assert report.passed
        assert len(report.cells) == 13

    def test_lucas_expansion(self):
        report = verify_basis_expansion("lucas", 12)
        assert report.passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_basis_expansion("hermite", 4)


class TestJacobiSpec:
    def test_specialize(self):
        assert P_spec().specialize(F(2)) == P_spec(F(2))
        assert lemma8_spec().specialize(F(1)) == lemma8_spec(F(1))

    def test_param_seq_eventual_constant(self):
        s = param_seq([1, 2], 7)
        assert [s.at(i) for i in range(5)] == [1, 2, 7, 7, 7]

    def test_is_numeric(self):
        assert f_spec().is_numeric
        assert not P_spec().is_numeric
        assert P_spec(F(5)).is_numeric

    def test_custom_spec_moments(self):
        # s = 0, t = 1 everywhere gives the aerated Catalan numbers
        spec = JacobiSpec(param_seq([], 0), param_seq([], 1))
        assert [moment(spec, n) for n in range(7)] == [1, 0, 1, 0, 2, 0, 5]


@pytest.mark.parametrize("index", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda i: triangle_entry("catalan_triangle", i, 0), id="triangle-n"),
        pytest.param(lambda i: triangle_entry("catalan_triangle", 1, i), id="triangle-k"),
        pytest.param(lambda i: gf_coeffs("catalan", i), id="gf_coeffs-order"),
    ],
)
def test_triangles_and_series_refuse_non_int_index(call, index):
    call(1)  # a cached int row must not answer for the equal bool
    with pytest.raises(IndexTypeError, match="nonnegative integer"):
        call(index)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDeepIndicesOnFreshCaches:
    """The memoized recurrences fill bottom-up, so a deep first call does
    not recurse once per index."""

    def test_catalan_triangle_600(self):
        clear_caches()
        assert triangle_entry("catalan_triangle", 600, 0) == 1

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: ortho_poly(f_spec(), 150), id="ortho_poly"),
            pytest.param(lambda: moment(f_spec(), 150), id="moment"),
            *(
                pytest.param(lambda tag=tag: triangle_entry(tag, 150, 2), id=tag)
                for tag in ("catalan_triangle", "angle_brackets", "a046899")
            ),
        ],
    )
    def test_stack_does_not_grow_with_the_index(self, call):
        # 120 frames to spare: a fill that recursed once per index ran out
        clear_caches()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 120)
        try:
            call()
        finally:
            sys.setrecursionlimit(limit)

    def test_values_match_the_recurrence_in_any_query_order(self):
        spec = lemma8_spec()
        chain = [Poly.const(1), X - spec.s.at(0)]
        for n in range(2, 41):
            chain.append((X - spec.s.at(n - 1)) * chain[-1] - spec.t.at(n - 2) * chain[-2])
        clear_caches()
        for n in (25, 3, 40, 0, 26, 39):
            assert ortho_poly(spec, n) == chain[n]
        # the moments of f_spec are the Catalan numbers
        for n in (12, 4, 13, 0):
            assert moment(f_spec(), n) == sequence_term("catalan", n)
