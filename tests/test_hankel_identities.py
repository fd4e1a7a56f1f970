"""Tests for the shifted determinant tables, the closed-form determinant
polynomials, condensation, and the identity suites."""

import importlib
import inspect
import pkgutil
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shifted_hankel
from shifted_hankel import clear_caches, exact_core, hankel_identities
from shifted_hankel.cli import run
from shifted_hankel.exact_core import (
    B,
    IndexTypeError,
    Poly,
    X,
    binom_poly,
    det_exact,
)
from shifted_hankel.hankel_identities import (
    INDETERMINATE_RATIO,
    HankelTable,
    PolyFamily,
    V_poly,
    condensation_check,
    condensation_reconstruct,
    det_poly_Hb,
    first_hankels_from_jacobi,
    h_poly,
    hankel_det,
    hankel_row,
    normalized_shifted,
    product_poly_H,
    product_poly_H2,
    theorem10_check,
    verify_theorem,
)
from shifted_hankel.ortho_moments import (
    MomentSequence,
    f_spec,
    gf_coeffs,
    lemma8_spec,
    lucas_spec,
    moment,
    ortho_poly,
    sequence_term,
    triangle_entry,
)
from shifted_hankel.report import FAIL, PASS, VerificationReport, render_b
from shifted_hankel.staircase_combinatorics import dyck_endpoints, lgv_count

CATALAN = MomentSequence("catalan")
MIDDLE = MomentSequence("middle")
CENTRAL = MomentSequence("central")


def mcap(b):
    return MomentSequence("Mcap", b=b)


def mb(b):
    return MomentSequence("Mb", b=b)


class TestHankelDet:
    def test_catalan_two_two(self):
        # det [[2, 5], [5, 14]] = 28 - 25
        assert hankel_det(CATALAN, 2, 2) == 3

    def test_catalan_three_two(self):
        # det [[5, 14], [14, 42]] = 210 - 196
        assert hankel_det(CATALAN, 3, 2) == 14

    def test_size_zero_is_one(self):
        for n in range(6):
            assert hankel_det(CATALAN, n, 0) == 1
            assert hankel_det(MIDDLE, n, 0) == 1

    def test_size_one_is_the_term(self):
        for n in range(8):
            assert hankel_det(CATALAN, n, 1) == sequence_term("catalan", n)

    def test_catalan_unshifted_and_shifted_are_one(self):
        assert hankel_det(CATALAN, 0, 7) == 1
        assert hankel_det(CATALAN, 1, 7) == 1

    def test_middle_can_go_negative(self):
        # det [[1, 2], [2, 3]]
        assert hankel_det(MIDDLE, 1, 2) == -1

    def test_formal_parameter_gives_polynomial(self):
        d = hankel_det(mb(B), 0, 3)
        assert isinstance(d, Poly)
        assert d == 1

    def test_table_memoizes(self):
        table = HankelTable(CATALAN)
        first = table.value(4, 3)
        assert (4, 3) in table.values
        assert table.value(4, 3) == first

    def test_reconstructed_table_without_source_rejects_new_cells(self):
        table = HankelTable(values={(0, 0): F(1)})
        assert table.value(0, 0) == 1
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            table.value(1, 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 5), k=st.integers(0, 4))
    def test_matches_direct_determinant(self, n, k):
        rows = [
            [sequence_term("catalan", n + i + j) for j in range(k)]
            for i in range(k)
        ]
        assert hankel_det(CATALAN, n, k) == det_exact(rows)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 4), k=st.integers(2, 4))
    def test_condensation_holds_numerically(self, n, k):
        u = hankel_det
        lhs = (
            u(CATALAN, n, k) * u(CATALAN, n + 2, k - 2)
            - u(CATALAN, n + 2, k - 1) * u(CATALAN, n, k - 1)
            + u(CATALAN, n + 1, k - 1) ** 2
        )
        assert lhs == 0


class ListedSequence:
    """A numeric table source with terms given by a list."""

    is_numeric = True

    def __init__(self, terms):
        self.terms = terms

    def term(self, n):
        return self.terms[n]


def per_cell(seq, n, k):
    return det_exact([[seq.term(n + i + j) for j in range(k)] for i in range(k)])


def cell_orders(cells, shuffled):
    return {
        "ascending": sorted(cells),
        "descending": sorted(cells, reverse=True),
        "shuffled": shuffled,
    }


ROW_CELLS = [(n, k) for n in range(4) for k in range(7)]


@pytest.fixture
def pass_orders(monkeypatch):
    """Orders of the Bareiss passes that tables run during the test."""
    orders = []
    real = hankel_identities.leading_minors

    def counted(rows):
        orders.append(len(rows))
        return real(rows)

    monkeypatch.setattr(hankel_identities, "leading_minors", counted)
    return orders


class TestRowFill:
    """A Bareiss pass per row gives the same cells as one determinant each."""

    @settings(max_examples=40, deadline=None)
    @given(
        terms=st.one_of(
            st.lists(st.integers(-2, 2), min_size=40, max_size=40),
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=40,
                max_size=40,
            ),
        ),
        shuffled=st.permutations(ROW_CELLS),
    )
    def test_random_sequences_match_per_cell(self, terms, shuffled):
        seq = ListedSequence(terms)
        for order in cell_orders(ROW_CELLS, shuffled).values():
            table = HankelTable(seq)
            for n, k in order:
                assert table.value(n, k) == per_cell(seq, n, k)

    @settings(max_examples=10, deadline=None)
    @given(shuffled=st.permutations([(n, k) for n in range(5) for k in range(9)]))
    def test_degenerate_table_matches_per_cell(self, shuffled):
        seq = mcap(F(2))
        for order in cell_orders(shuffled, shuffled).values():
            table = HankelTable(seq)
            for n, k in order:
                assert table.value(n, k) == per_cell(seq, n, k)

    def test_stopped_pass_is_not_redone(self, pass_orders):
        table = HankelTable(mcap(F(2)))
        for k in range(2, 9):
            table.value(3, k)
        # order 2 ends cleanly in u(3, 2) = 0; order 4 stops at that pivot
        assert pass_orders == [2, 4]
        assert table.passes[3] == (4, 2)

    def test_ascending_scan_doubles_the_order(self, pass_orders):
        table = HankelTable(CATALAN)
        for k in range(17):
            table.value(5, k)
        assert pass_orders == [2, 4, 8, 16]


ROW_KS = st.lists(st.integers(0, 8), max_size=9)


class TestHankelRow:
    """A row scan fills its row once, at the widest cell asked for."""

    @settings(max_examples=40, deadline=None)
    @given(
        terms=st.one_of(
            st.lists(st.integers(-2, 2), min_size=30, max_size=30),
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=30,
                max_size=30,
            ),
        ),
        rows=st.lists(st.tuples(st.integers(0, 4), ROW_KS), max_size=4),
    )
    def test_random_sequences_match_per_cell(self, terms, rows):
        seq = ListedSequence(terms)
        for n, ks in rows:
            assert hankel_row(seq, n, ks) == [per_cell(seq, n, k) for k in ks]

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 4), ROW_KS), max_size=4))
    def test_degenerate_sequence_matches_per_cell(self, rows):
        # a fresh source for each example, so every scan starts a new table
        seq = ListedSequence([mcap(F(2)).term(i) for i in range(30)])
        for n, ks in rows:
            assert hankel_row(seq, n, ks) == [per_cell(seq, n, k) for k in ks]

    def test_row_scan_runs_one_pass_of_its_width(self, pass_orders, monkeypatch):
        monkeypatch.setattr(hankel_identities, "_TABLES", {})
        row = hankel_row(CATALAN, 5, range(17))
        assert pass_orders == [16]
        assert row == [per_cell(CATALAN, 5, k) for k in range(17)]

    def test_verify_scans_rows_at_the_grid_width(self, pass_orders, monkeypatch):
        monkeypatch.setattr(hankel_identities, "_TABLES", {})
        assert verify_theorem("th1", n_max=6, k_max=12).passed
        assert pass_orders == [12] * 7

    @pytest.mark.parametrize(
        "suite, width",
        [
            pytest.param(lambda: theorem10_check(4, 9), 9, id="theorem10"),
            pytest.param(lambda: verify_theorem("eq1_6", 4, 9), 9, id="eq1_6"),
            pytest.param(
                lambda: verify_theorem("th4", 3, 7, b_values=[F(3)]), 7, id="th4"
            ),
            pytest.param(lambda: verify_theorem("cor7", 2, 5), 5, id="cor7"),
        ],
    )
    def test_suites_scan_rows_at_the_grid_width(
        self, pass_orders, monkeypatch, suite, width
    ):
        monkeypatch.setattr(hankel_identities, "_TABLES", {})
        assert suite().passed
        assert pass_orders and set(pass_orders) == {width}

    def test_cli_table_scans_rows_at_its_width(self, pass_orders, monkeypatch):
        monkeypatch.setattr(hankel_identities, "_TABLES", {})
        argv = ["hankel", "--family", "central", "--n", "0..3", "--k", "0..9"]
        assert run(argv) == 0
        assert pass_orders == [9] * 4

    def test_empty_scan_is_an_empty_row(self):
        assert hankel_row(CATALAN, 3, []) == []

    @pytest.mark.parametrize(
        "n, ks",
        [
            pytest.param(-1, [2], id="n-negative"),
            pytest.param(True, [2], id="n-bool"),
            pytest.param(2, [3, -1], id="k-negative"),
            pytest.param(2, [3, True], id="k-bool"),
        ],
    )
    def test_invalid_index_is_refused_before_any_pass(
        self, pass_orders, monkeypatch, n, ks
    ):
        monkeypatch.setattr(hankel_identities, "_TABLES", {})
        with pytest.raises(ValueError, match="nonnegative integer"):
            hankel_row(MomentSequence("catalan"), n, ks)
        assert pass_orders == []


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(hankel_det, (CATALAN, 0, -3), id="hankel_det-k-negative"),
        pytest.param(hankel_det, (CATALAN, -1, 2), id="hankel_det-n-negative"),
        pytest.param(hankel_det, (CATALAN, True, 2), id="hankel_det-n-bool"),
        pytest.param(hankel_det, (CATALAN, 2, True), id="hankel_det-k-bool"),
        pytest.param(product_poly_H, (-1,), id="product_poly_H-negative"),
        pytest.param(product_poly_H, (True,), id="product_poly_H-bool"),
        pytest.param(h_poly, (-3,), id="h_poly-negative"),
        pytest.param(h_poly, (True,), id="h_poly-bool"),
        pytest.param(product_poly_H2, (-1,), id="product_poly_H2-negative"),
        pytest.param(product_poly_H2, (True,), id="product_poly_H2-bool"),
        pytest.param(det_poly_Hb, (-2,), id="det_poly_Hb-negative"),
        pytest.param(det_poly_Hb, (True,), id="det_poly_Hb-bool"),
        pytest.param(V_poly, (-1,), id="V_poly-negative"),
        pytest.param(V_poly, (True,), id="V_poly-bool"),
    ],
)
def test_invalid_index_is_refused(fn, args):
    if any(isinstance(a, bool) for a in args):
        # an int already computed must not answer for the equal bool
        fn(*(int(a) if isinstance(a, bool) else a for a in args))
    with pytest.raises(ValueError, match="nonnegative integer"):
        fn(*args)


def old_h_poly(n):
    out = Poly.const(1)
    for k in range(1, n):
        out = out * ((X + k) * F(1, k)) ** min(k, n - k)
    return out


def old_h2_product(n):
    out = Poly.const(1)
    for j in range((n - 1) // 2 + 1):
        for i in range(2 * j + 1, 2 * n - 2 * j):
            out = out * (2 * X + i) * F(1, i)
    return out


class TestIntegerProducts:
    def test_catalan_products_at_integers(self):
        for n in range(13):
            closed = product_poly_H(n)
            for k in range(11):
                expected = prod(
                    F(2 * k + i + j, i + j)
                    for i in range(1, n)
                    for j in range(i, n)
                )
                assert closed.subs(x=k) == expected

    def test_middle_binomial_family_matches_fraction_products(self):
        for n in range(13):
            assert h_poly(n) == old_h_poly(n)

    def test_doubled_parameter_family_matches_fraction_products(self):
        for n in range(9):
            assert product_poly_H2(n) == old_h2_product(n)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-5, 5).filter(bool)),
            max_size=8,
        )
    )
    def test_linear_product_matches_poly_products(self, factors):
        expected = Poly.const(1)
        for a, c in factors:
            expected = expected * (a * X + c) * F(1, c)
        coeffs, den = hankel_identities._linear_product(factors)
        assert hankel_identities._dense_poly(coeffs, den) == expected


class TestProductPolyH:
    def test_small_members(self):
        assert product_poly_H(0) == 1
        assert product_poly_H(1) == 1
        assert product_poly_H(2) == X + 1

    def test_degree_three_member(self):
        expected = (
            F(1, 3) * X**3 + F(3, 2) * X**2 + F(13, 6) * X + Poly.const(1)
        )
        assert product_poly_H(3) == expected

    def test_value_matches_determinant(self):
        assert product_poly_H(3).subs(x=2) == hankel_det(CATALAN, 3, 2)

    def test_value_at_one_is_the_sequence_term(self):
        for n in range(9):
            assert product_poly_H(n).subs(x=1) == sequence_term("catalan", n)

    def test_degree_growth(self):
        for n in range(9):
            assert product_poly_H(n).deg_x == n * (n - 1) // 2


class TestDetPolyHb:
    def test_small_members(self):
        assert det_poly_Hb(0) == 1
        assert det_poly_Hb(1) == 1 + B * X

    def test_degree_two_member(self):
        expected = F(1, 6) * (1 + X) * (
            Poly.const(6) + B * (B + 6) * X + 2 * B**2 * X**2
        )
        assert det_poly_Hb(2) == expected

    def test_degree_three_member(self):
        prefactor = F(1, 180) * (1 + X) * (2 + X) * (3 + 2 * X)
        inner = (
            Poly.const(30)
            + B * (B**2 + 6 * B + 30) * X
            + 3 * B**2 * (B + 4) * X**2
            + 2 * B**3 * X**3
        )
        assert det_poly_Hb(3) == prefactor * inner

    def test_parameter_zero_reduces_to_plain_product(self):
        for n in range(6):
            assert det_poly_Hb(n).subs(b=0) == product_poly_H(n)

    def test_parameter_one_shifts_the_family_index(self):
        for n in range(6):
            assert det_poly_Hb(n).subs(b=1) == product_poly_H(n + 1)

    def test_value_at_one_gives_the_moments(self):
        for n in range(7):
            assert det_poly_Hb(n).subs(x=1) == sequence_term("Mb", n, b=B)


    def test_entry_determinant_runs_no_ring_arithmetic(self, monkeypatch):
        # det_poly must stay integer determinants of evaluations: no Poly
        # product, and one integer determinant per evaluation point
        rows = [[hankel_identities._hb_entry(i, j, B) for j in range(8)] for i in range(8)]
        b_bound = sum(max(entry.deg_b for entry in row) for row in rows)
        expected = det_poly_Hb(8)
        products = []
        determinants = []
        poly_mul = Poly.__mul__
        bareiss = exact_core._bareiss_int

        def counted_mul(self, other):
            products.append(other)
            return poly_mul(self, other)

        def counted_bareiss(m):
            determinants.append(len(m))
            return bareiss(m)

        monkeypatch.setattr(Poly, "__mul__", counted_mul)
        monkeypatch.setattr(Poly, "__rmul__", counted_mul)
        monkeypatch.setattr(exact_core, "_bareiss_int", counted_bareiss)
        assert exact_core.det_poly(rows) == expected
        assert products == []
        assert 1 <= len(determinants) <= b_bound + 1


class TestProductPolyH2:
    def test_small_members(self):
        assert product_poly_H2(0) == 1
        assert product_poly_H2(1) == 1 + 2 * X

    def test_degree_two_member(self):
        # (2x+1)(2x+2)(2x+3)/6
        expected = F(4, 3) * X**3 + 4 * X**2 + F(11, 3) * X + Poly.const(1)
        assert product_poly_H2(2) == expected
        assert product_poly_H2(2).subs(x=1) == 10

    def test_value_at_one(self):
        from math import comb

        for n in range(9):
            assert product_poly_H2(n).subs(x=1) == comb(2 * n + 1, n)

    def test_internal_routes_agree_for_larger_members(self):
        # construction cross-checks two determinant routes internally
        for n in (9, 10):
            assert product_poly_H2(n).subs(x=0) == 1


class TestVPoly:
    def test_small_members(self):
        assert V_poly(0) == 1
        assert V_poly(1) == 2 * B * X - B + 2

    def test_value_at_one_gives_the_moments(self):
        for n in range(6):
            assert V_poly(n).subs(x=1) == sequence_term("Mcap", n, b=B)

    def test_parameter_two_collapses_to_scaled_shift(self):
        for n in range(5):
            expected = 4**n * product_poly_H(n + 1).shift_x(-1)
            assert V_poly(n).subs(b=2) == expected

    def test_specialization_consistency(self):
        assert V_poly(1).subs(b=F(1), x=F(2)) == 5


class TestHPoly:
    def test_small_members(self):
        assert h_poly(0) == 1
        assert h_poly(1) == 1
        assert h_poly(2) == X + 1

    def test_degree_four_member(self):
        expected = F(1, 12) * (X + 1) * (X + 2) ** 2 * (X + 3)
        assert h_poly(4) == expected

    def test_value_at_one_is_middle_term(self):
        from math import comb

        for n in range(11):
            assert h_poly(n).subs(x=1) == comb(n, n // 2)

    def test_value_at_zero_is_one(self):
        for n in range(8):
            assert h_poly(n).subs(x=0) == 1


class TestPolyFamily:
    def test_member_zero_is_one(self):
        for kind in ("H", "Hb", "H2", "V", "h"):
            assert PolyFamily(kind).member(0) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown polynomial family"):
            PolyFamily("Q")

    def test_sign_twist_only_for_h(self):
        assert PolyFamily("h").twisted
        assert not PolyFamily("H").twisted


class TestCondensationCheck:
    @pytest.mark.parametrize("kind", ["H", "H2", "h"])
    def test_univariate_families(self, kind):
        report = condensation_check(kind, 4)
        assert report.passed
        assert report.counts() == (5, 0)

    @pytest.mark.parametrize("kind", ["Hb", "V"])
    def test_bivariate_families(self, kind):
        report = condensation_check(kind, 3)
        assert report.passed

    def test_accepts_family_object(self):
        assert condensation_check(PolyFamily("H"), 2).passed

    def test_suite_name_mentions_kind(self):
        report = condensation_check("H2", 1)
        assert "H2" in report.suite


class TestCondensationReconstruct:
    def test_catalan_boundary_rebuilds_interior(self):
        table = condensation_reconstruct(
            row0=lambda k: F(1),
            row1=lambda k: F(1),
            col1=lambda n: sequence_term("catalan", n),
            n_max=6,
            k_max=6,
        )
        assert table.value(2, 2) == 3
        for n in range(7):
            for k in range(7):
                assert table.value(n, k) == hankel_det(CATALAN, n, k)

    def test_parametrized_sequence_boundary(self):
        seq = mb(F(3))
        table = condensation_reconstruct(
            row0=lambda k: hankel_det(seq, 0, k),
            row1=lambda k: hankel_det(seq, 1, k),
            col1=lambda n: seq.term(n),
            n_max=4,
            k_max=4,
        )
        for n in range(5):
            for k in range(5):
                assert table.value(n, k) == hankel_det(seq, n, k)

    def test_zero_divisor_names_the_cell(self):
        flat = lambda k: F(1) if k <= 1 else F(0)
        with pytest.raises(ZeroDivisionError, match=r"u\(0, 2\)"):
            condensation_reconstruct(
                row0=flat, row1=flat, col1=lambda n: F(1), n_max=4, k_max=3
            )

    def test_inexact_integer_division_is_rejected(self):
        with pytest.raises(ArithmeticError, match="not exact"):
            condensation_reconstruct(
                row0=lambda k: F(k + 1),
                row1=lambda k: F(1),
                col1=lambda n: F(1),
                n_max=2,
                k_max=2,
            )


class TestNormalizedShifted:
    def test_central_binomial_cell(self):
        # det [[6, 20], [20, 70]] = 20, halved
        assert normalized_shifted("Mcap", F(0), 2, 2) == 10

    def test_zero_shift_normalizes_to_one(self):
        for k in range(1, 6):
            assert normalized_shifted("Mcap", F(0), 0, k) == 1

    def test_formal_parameter_zero_shift(self):
        assert hankel_det(mcap(B), 0, 3) == (2 - B) ** 2
        assert normalized_shifted("Mcap", None, 0, 3) == 1

    def test_formal_parameter_interior_cell(self):
        assert normalized_shifted("Mcap", None, 1, 2) == 3 * B + 2

    def test_degenerate_parameter_yields_marker(self):
        assert normalized_shifted("Mcap", F(2), 1, 2) is INDETERMINATE_RATIO
        assert normalized_shifted("Mcap", F(2), 0, 4) is INDETERMINATE_RATIO

    def test_degenerate_parameter_small_sizes_still_defined(self):
        assert normalized_shifted("Mcap", F(2), 3, 1) == 4**3
        assert normalized_shifted("Mcap", F(2), 2, 0) == 0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="Mcap"):
            normalized_shifted("catalan", F(0), 1, 1)


class TestTheoremTenScan:
    def test_scan_passes(self):
        report = theorem10_check(6, 4)
        assert report.passed
        assert report.counts() == (7 * 5, 0)

    def test_sign_law_recorded(self):
        report = theorem10_check(4, 4)
        assert "sign_law" in report.grid
        assert "(-1)^(n*k*(k-1)/2)" in report.grid["sign_law"]

    def test_stated_sign_disagreements_flagged(self):
        report = theorem10_check(4, 4)
        flagged = report.grid["stated_sign_disagreements"]
        assert (0, 2) in flagged
        assert (2, 2) in flagged
        assert (2, 3) in flagged
        assert (1, 2) not in flagged

    def test_spot_cells(self):
        assert hankel_det(MIDDLE, 1, 2) == -1
        assert h_poly(1).subs(x=2) == 1
        assert hankel_det(MIDDLE, 2, 2) == 3
        assert h_poly(2).subs(x=2) == 3


class TestFirstHankels:
    def test_empty_case(self):
        assert first_hankels_from_jacobi(f_spec(), 0) == (1, 1)

    def test_unit_parameter_family(self):
        for n in range(7):
            assert first_hankels_from_jacobi(f_spec(), n) == (1, 1)

    def test_formal_parameter_family(self):
        d0, d1 = first_hankels_from_jacobi(lemma8_spec(), 3)
        assert d0 == (2 - B) ** 2
        assert d1 == (2 - B) ** 2 * (2 + 5 * B)

    def test_doubled_initial_weight(self):
        assert first_hankels_from_jacobi(lucas_spec(), 3) == (4, 0)


class TestVerifySuites:
    def test_catalan_product_suite(self):
        report = verify_theorem("th1", n_max=5, k_max=5)
        assert report.passed
        assert report.counts() == (36, 0)

    def test_binomial_determinant_suite(self):
        assert verify_theorem("th2", n_max=5).passed

    def test_parametrized_grid_suite(self):
        report = verify_theorem(
            "th4", n_max=4, k_max=4, b_values=(F(-3, 2), F(0), F(1))
        )
        assert report.passed

    def test_doubled_parameter_suite(self):
        assert verify_theorem("th5", n_max=5).passed

    def test_normalized_family_suite(self):
        assert verify_theorem("cor7", n_max=3, k_max=3).passed

    def test_moment_family_suite(self):
        assert verify_theorem("lemma8", n_max=5, k_max=4).passed

    def test_central_binomial_ratio_suite(self):
        assert verify_theorem("eq1_6", n_max=4, k_max=4).passed

    def test_index_shift_suite(self):
        assert verify_theorem("h1_equals_h0_shift", n_max=5).passed

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify_theorem("th3")

    def test_report_carries_grid_bounds(self):
        report = verify_theorem("th1", n_max=2, k_max=3)
        assert report.grid["n_max"] == 2
        assert report.grid["k_max"] == 3


class TestReportMechanics:
    def test_pass_fail_bookkeeping(self):
        report = VerificationReport(suite="demo", grid={})
        report.add(n=0, k=0, ok=True, lhs="1", rhs="1")
        report.add(n=1, k=2, b=F(1, 2), ok=False, lhs="3", rhs="4")
        assert not report.passed
        assert report.counts() == (1, 1)
        cell = report.first_failure
        assert (cell.n, cell.k, cell.b) == (1, 2, "1/2")
        assert cell.status == FAIL

    def test_empty_report_passes(self):
        assert VerificationReport(suite="demo", grid={}).passed

    def test_parameter_rendering(self):
        assert render_b(F(-3, 2)) == "-3/2"
        assert render_b(None) is None
        assert render_b(B) is None
        assert render_b(2) == "2"

    def test_status_override(self):
        report = VerificationReport(suite="demo", grid={})
        report.add(n=0, status=PASS, lhs="x", rhs="x")
        assert report.cells[0].status == PASS


@pytest.mark.parametrize(
    "call, error, message",
    [
        # a grid with no cells must not read as PASS
        pytest.param(
            lambda: verify_theorem("th1", n_max=-1), ValueError, "empty grid",
            id="th1-empty-grid",
        ),
        pytest.param(
            lambda: verify_theorem("eq1_6", n_max=0), ValueError, "empty grid",
            id="eq1_6-empty-grid",
        ),
        pytest.param(
            lambda: theorem10_check(-1, -1), ValueError, "empty grid",
            id="theorem10-empty-grid",
        ),
        pytest.param(
            lambda: condensation_check("H", -1), ValueError, "empty grid",
            id="condensation-empty-grid",
        ),
        # floats never reach Fraction()
        pytest.param(
            lambda: MomentSequence("Mb", b=0.1).term(2), TypeError, "float",
            id="Mb-float-parameter",
        ),
        pytest.param(
            lambda: verify_theorem("th4", b_values=[0.5]), TypeError, "float",
            id="th4-float-b",
        ),
        pytest.param(
            lambda: ortho_poly(f_spec(), 2.0), TypeError, "float",
            id="ortho_poly-float-index",
        ),
        pytest.param(
            lambda: moment(f_spec(), 2.0), TypeError, "float", id="moment-float-index"
        ),
        pytest.param(
            lambda: lemma8_spec().specialize(0.5), TypeError, "float",
            id="specialize-float",
        ),
        pytest.param(
            lambda: gf_coeffs("Bb", 4, b=0.5), TypeError, "float",
            id="gf_coeffs-float-b",
        ),
        pytest.param(
            lambda: normalized_shifted("Mcap", 0.5, 1, 1), TypeError, "float",
            id="normalized_shifted-float-b",
        ),
        # bool is not a number
        pytest.param(
            lambda: det_exact([[True, 0], [0, True]]), TypeError, "bool",
            id="det_exact-bool-entries",
        ),
        pytest.param(lambda: X**True, TypeError, "bool", id="poly-bool-exponent"),
        pytest.param(
            lambda: ortho_poly(f_spec(), True), TypeError, "bool",
            id="ortho_poly-bool-index",
        ),
        pytest.param(
            lambda: CATALAN.term(True), TypeError, "bool", id="term-bool-index"
        ),
        # a suite that does not read b refuses b values
        *(
            pytest.param(
                lambda tag=tag: verify_theorem(tag, n_max=2, b_values=[F(1)]),
                ValueError,
                "does not take b",
                id=f"{tag}-refuses-b",
            )
            for tag in (
                "th1", "th2", "th5", "cor7", "lemma8", "eq1_6",
                "h1_equals_h0_shift",
            )
        ),
    ],
)
def test_library_refuses_inexact_or_empty_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("index", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda i: hankel_det(CATALAN, i, 2), id="hankel_det"),
        pytest.param(lambda i: hankel_row(CATALAN, 2, [i]), id="hankel_row"),
        pytest.param(lambda i: product_poly_H(i), id="product_poly_H"),
        pytest.param(lambda i: ortho_poly(f_spec(), i), id="ortho_poly"),
        pytest.param(lambda i: moment(f_spec(), i), id="moment"),
        pytest.param(lambda i: CATALAN.term(i), id="term"),
    ],
)
def test_non_int_index_raises_one_exception_everywhere(call, index):
    # one check for both modules: a TypeError that is also the ValueError
    # the Hankel entry points have always raised for a bool index
    with pytest.raises(IndexTypeError, match="nonnegative integer"):
        call(index)


def test_clear_caches_empties_every_memo():
    # fill the Hankel tables and a cache in each module that keeps one
    cell = hankel_det(CATALAN, 2, 3)
    assert verify_theorem("th5", n_max=2).cells
    assert lgv_count(*dyck_endpoints(2, 2), model="dyck") == hankel_det(CATALAN, 2, 2)
    assert triangle_entry("catalan_triangle", 4, 2) == 9
    caches = []
    for info in pkgutil.iter_modules(shifted_hankel.__path__):
        module = importlib.import_module(f"shifted_hankel.{info.name}")
        found = [
            v for v in vars(module).values()
            if hasattr(v, "cache_info") and v.__module__ == module.__name__
        ]
        # every decorated function of the module, found by its source
        assert len(found) == inspect.getsource(module).count("@lru_cache(")
        caches.extend(found)
    assert hankel_identities._TABLES
    assert any(cache.cache_info().currsize for cache in caches)
    clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
    assert hankel_identities._TABLES == {}
    # the memos refill on demand with the same values
    assert hankel_det(CATALAN, 2, 3) == cell
    assert triangle_entry("catalan_triangle", 4, 2) == 9
