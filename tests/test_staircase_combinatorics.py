"""Tests for staircase plane partitions, the two lattice-path encodings, and
determinant versus brute-force counting."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifted_hankel.hankel_identities import hankel_det, product_poly_H
from shifted_hankel.ortho_moments import MomentSequence, sequence_term
from shifted_hankel.staircase_combinatorics import (
    LatticePath,
    PathFamily,
    PlanePartition,
    count_nonintersecting_brute,
    count_pp,
    count_pp_vs_formulas,
    dyck_endpoints,
    dyck_to_pp,
    enumerate_pp,
    hv_endpoints,
    hv_to_pp,
    lgv_count,
    partition_from_text,
    partition_to_text,
    path_from_text,
    path_to_text,
    pp_to_dyck,
    pp_to_hv,
)

CATALAN = MomentSequence("catalan")

STAIR_EXAMPLE = PlanePartition(
    6, 5, ((5, 5, 5, 3, 2), (5, 4, 3, 3), (2, 2, 2), (2, 1), (0,))
)


@st.composite
def staircase_partitions(draw, n_max=4, k_max=3):
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(0, k_max))
    rows = []
    for i in range(n - 1):
        row = []
        for j in range(n - 1 - i):
            bound = k if i == 0 else rows[i - 1][j]
            if j > 0:
                bound = min(bound, row[j - 1])
            row.append(draw(st.integers(0, bound)))
        rows.append(tuple(row))
    return PlanePartition(n, k, tuple(rows))


class TestPlanePartition:
    def test_wide_example_is_valid(self):
        assert STAIR_EXAMPLE.n == 6
        assert STAIR_EXAMPLE.k == 5

    def test_empty_shape(self):
        p = PlanePartition(1, 7, ())
        assert p.rows == ()

    def test_bound_violation(self):
        with pytest.raises(ValueError, match="bound"):
            PlanePartition(2, 1, ((2,),))

    def test_row_must_decrease(self):
        with pytest.raises(ValueError, match="row"):
            PlanePartition(3, 2, ((1, 2), (1,)))

    def test_column_must_decrease(self):
        with pytest.raises(ValueError, match="column"):
            PlanePartition(3, 2, ((1, 1), (2,)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            PlanePartition(3, 2, ((1, 1, 1), (1,)))
        with pytest.raises(ValueError, match="shape"):
            PlanePartition(3, 2, ((1, 1),))

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            PlanePartition(2, 3, ((-1,),))


class TestTextFormats:
    def test_partition_round_trip(self):
        text = "5,5,5,3,2;5,4,3,3;2,2,2;2,1;0"
        assert partition_to_text(STAIR_EXAMPLE) == text
        assert partition_from_text(text, 5) == STAIR_EXAMPLE

    def test_empty_partition_text(self):
        p = PlanePartition(1, 3, ())
        assert partition_to_text(p) == ""
        assert partition_from_text("", 3) == p

    def test_single_cell(self):
        p = PlanePartition(2, 2, ((1,),))
        assert partition_to_text(p) == "1"
        assert partition_from_text("1", 2) == p

    def test_hv_path_round_trip(self):
        path = LatticePath((-1, 4), ("H", "V", "V", "H", "V"), "hv")
        assert path_to_text(path) == "(-1,4) HVVHV"
        assert path_from_text("(-1,4) HVVHV", "hv") == path

    def test_dyck_path_round_trip(self):
        path = LatticePath((0, 0), ("U", "U", "D", "D"), "dyck")
        assert path_to_text(path) == "(0,0) UUDD"
        assert path_from_text("(0,0) UUDD", "dyck") == path

    def test_empty_path_text(self):
        path = LatticePath((-1, -1), (), "hv")
        assert path_to_text(path) == "(-1,-1)"
        assert path_from_text("(-1,-1)", "hv") == path

    def test_malformed_path_text(self):
        with pytest.raises(ValueError, match="path text"):
            path_from_text("UUDD", "dyck")


class TestLatticePath:
    def test_dyck_must_stay_nonnegative(self):
        with pytest.raises(ValueError, match="axis"):
            LatticePath((0, 0), ("D", "U"), "dyck")

    def test_dyck_must_return_to_axis(self):
        with pytest.raises(ValueError, match="axis"):
            LatticePath((0, 0), ("U", "U"), "dyck")

    def test_alphabet_checked(self):
        with pytest.raises(ValueError, match="step"):
            LatticePath((0, 0), ("U", "H"), "dyck")
        with pytest.raises(ValueError, match="model"):
            LatticePath((0, 0), ("U", "D"), "diagonal")

    def test_vertices(self):
        path = LatticePath((0, 0), ("U", "D"), "dyck")
        assert path.vertices() == ((0, 0), (1, 1), (2, 0))
        assert path.end == (2, 0)

    def test_hv_vertices(self):
        path = LatticePath((-1, 1), ("H", "V"), "hv")
        assert path.vertices() == ((-1, 1), (0, 1), (0, 0))


class TestPathFamily:
    def test_disjoint_family_accepted(self):
        fam = PathFamily(
            (
                LatticePath((0, 0), ("U", "D"), "dyck"),
                LatticePath((-2, 0), ("U",) * 3 + ("D",) * 3, "dyck"),
            )
        )
        assert len(fam.paths) == 2

    def test_crossing_family_rejected(self):
        with pytest.raises(ValueError, match="share"):
            PathFamily(
                (
                    LatticePath((0, 0), ("U", "D", "U", "D"), "dyck"),
                    LatticePath((0, 0), ("U", "U", "D", "D"), "dyck"),
                )
            )

    def test_mixed_models_rejected(self):
        with pytest.raises(ValueError, match="model"):
            PathFamily(
                (
                    LatticePath((0, 0), ("U", "D"), "dyck"),
                    LatticePath((5, 1), ("H", "V"), "hv"),
                )
            )


class TestEnumerate:
    def test_tiny_counts(self):
        assert count_pp(2, 1) == 2
        assert count_pp(3, 1) == 5
        assert count_pp(1, 9) == 1
        assert count_pp(3, 2) == 14

    def test_bound_one_gives_catalan(self):
        for n in range(1, 6):
            assert count_pp(n, 1) == sequence_term("catalan", n)

    def test_zero_bound(self):
        assert count_pp(4, 0) == 1

    def test_lexicographic_stream(self):
        stream = list(enumerate_pp(3, 1))
        assert stream[0].rows == ((0, 0), (0,))
        assert stream[-1].rows == ((1, 1), (1,))
        flat = [sum(sum(r) for r in p.rows) for p in stream]
        assert len(stream) == len(set(p.rows for p in stream)) == 5
        assert flat[0] == 0 and flat[-1] == 3

    def test_larger_grid_matches_closed_form(self):
        for n in range(1, 5):
            for k in range(4):
                assert count_pp(n, k) == product_poly_H(n).subs(x=k)

    def test_monotone_in_both_arguments(self):
        for n in range(1, 4):
            for k in range(3):
                assert count_pp(n, k) <= count_pp(n, k + 1)
                assert count_pp(n, k) <= count_pp(n + 1, k)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_pp(0, 1))
        with pytest.raises(ValueError):
            list(enumerate_pp(2, -1))

    def test_transfer_count_equals_enumeration(self):
        for n in range(1, 7):
            for k in range(5):
                assert count_pp(n, k) == sum(1 for _ in enumerate_pp(n, k))

    def test_transfer_count_beyond_enumeration(self):
        for n, k in ((7, 5), (7, 7)):
            assert count_pp(n, k) == product_poly_H(n).subs(x=k)

    @pytest.mark.parametrize("n, k", [(0, 1), (2, -1), (3, 1.5), (True, 1)])
    def test_count_checks_arguments_as_enumeration_does(self, n, k):
        with pytest.raises((TypeError, ValueError)) as counted:
            count_pp(n, k)
        with pytest.raises((TypeError, ValueError)) as listed:
            enumerate_pp(n, k)
        assert counted.type is listed.type
        assert str(counted.value) == str(listed.value)

    def test_walked_items_pass_the_partition_check(self):
        # enumerate_pp builds its items without PlanePartition's check
        for n in range(1, 6):
            for k in range(4):
                assert all(p._fits() for p in enumerate_pp(n, k))


class TestCountVsFormulas:
    def test_known_cell(self):
        report = count_pp_vs_formulas(4, 1)
        assert report.passed
        assert report.grid["values"]["enumeration"] == "14"

    def test_empty_shape(self):
        report = count_pp_vs_formulas(1, 9)
        assert report.passed
        assert report.grid["values"]["enumeration"] == "1"

    def test_interior_cell(self):
        assert count_pp_vs_formulas(3, 2).grid["values"]["hankel"] == "14"

    def test_all_four_routes_agree_on_grid(self):
        for n in range(1, 5):
            for k in range(4):
                assert count_pp_vs_formulas(n, k).passed


class TestDyckEncoding:
    def test_two_partitions_map_to_the_two_paths(self):
        images = set()
        for p in enumerate_pp(2, 1):
            fam = pp_to_dyck(p)
            assert len(fam.paths) == 1
            images.add("".join(fam.paths[0].steps))
        assert images == {"UUDD", "UDUD"}

    def test_trivial_shape_gives_nested_arcs(self):
        fam = pp_to_dyck(PlanePartition(1, 2, ()))
        assert [p.start for p in fam.paths] == [(0, 0), (-2, 0)]
        assert "".join(fam.paths[0].steps) == "UD"
        assert "".join(fam.paths[1].steps) == "UUUDDD"

    def test_prescribed_endpoints(self):
        starts, ends = dyck_endpoints(3, 2)
        for p in enumerate_pp(3, 2):
            fam = pp_to_dyck(p)
            assert [q.start for q in fam.paths] == starts
            assert [q.end for q in fam.paths] == ends

    def test_injective_and_complete(self):
        images = {pp_to_dyck(p) for p in enumerate_pp(3, 2)}
        assert len(images) == 14
        starts, ends = dyck_endpoints(3, 2)
        assert lgv_count(starts, ends, "dyck") == 14

    def test_round_trip_small(self):
        for p in enumerate_pp(3, 1):
            assert dyck_to_pp(pp_to_dyck(p)) == p

    def test_round_trip_wider(self):
        seen = 0
        for p in enumerate_pp(4, 3):
            assert dyck_to_pp(pp_to_dyck(p)) == p
            seen += 1
        assert seen == 330

    def test_foreign_start_points_rejected(self):
        fam = PathFamily(
            (
                LatticePath((0, 0), ("U", "D", "U", "D"), "dyck"),
                LatticePath((-8, 0), ("U",) * 3 + ("D",) * 3, "dyck"),
            )
        )
        with pytest.raises(ValueError, match="level-curve"):
            dyck_to_pp(fam)

    def test_inconsistent_lengths_rejected(self):
        fam = PathFamily(
            (
                LatticePath((0, 0), ("U", "D"), "dyck"),
                LatticePath(
                    (-2, 0), ("U", "U", "U", "U", "D", "D", "D", "D"), "dyck"
                ),
            )
        )
        with pytest.raises(ValueError, match="level-curve"):
            dyck_to_pp(fam)

    def test_empty_family_cannot_infer_shape(self):
        with pytest.raises(ValueError, match="empty"):
            dyck_to_pp(PathFamily(()))

    def test_accepts_exactly_the_image_of_altered_families(self):
        # A Dyck path with one step replaced no longer ends on the axis, so
        # the alterations move one step (two adjacent steps swapped) or move
        # a whole path two units along the axis; only a lone path can move
        # without meeting another.
        outcomes = Counter()
        for n, k in ((4, 1), (3, 2), (4, 2), (3, 3)):
            images = {pp_to_dyck(p) for p in enumerate_pp(n, k)}
            for alter in (_swap_adjacent, _shift_start):
                altered = _altered_families(images, alter)
                outcomes += _decode_exactly_the_image(
                    dyck_to_pp, images, altered
                )
        assert outcomes["accepted"] and outcomes["rejected"]

    def test_hv_family_rejected(self):
        for p in enumerate_pp(3, 2):
            with pytest.raises(ValueError, match="level-curve"):
                dyck_to_pp(pp_to_hv(p))


class TestHvEncoding:
    def test_step_counts_match_endpoints(self):
        for p in enumerate_pp(3, 2):
            fam = pp_to_hv(p)
            for i, path in enumerate(fam.paths):
                assert sum(1 for s in path.steps if s == "H") == 2 * i
                assert sum(1 for s in path.steps if s == "V") == 2

    def test_prescribed_endpoints(self):
        starts, ends = hv_endpoints(3, 2)
        assert starts == [(-1, 1), (-1, 2), (-1, 3)]
        assert ends == [(-1, -1), (1, 0), (3, 1)]
        fam = pp_to_hv(next(enumerate_pp(3, 2)))
        assert [q.start for q in fam.paths] == starts
        assert [q.end for q in fam.paths] == ends

    def test_injective_and_complete(self):
        images = {pp_to_hv(p) for p in enumerate_pp(2, 2)}
        assert len(images) == 3
        images = {pp_to_hv(p) for p in enumerate_pp(3, 1)}
        assert len(images) == 5

    def test_round_trip_exhaustive(self):
        for p in enumerate_pp(3, 2):
            assert hv_to_pp(pp_to_hv(p)) == p
        for p in enumerate_pp(4, 2):
            assert hv_to_pp(pp_to_hv(p)) == p

    def test_round_trip_zero_bound(self):
        p = PlanePartition(3, 0, ((0, 0), (0,)))
        assert hv_to_pp(pp_to_hv(p)) == p

    def test_wrong_endpoints_rejected(self):
        fam = PathFamily((LatticePath((-1, 1), ("H", "V", "V"), "hv"),))
        with pytest.raises(ValueError, match="row-height"):
            hv_to_pp(fam)

    def test_accepts_exactly_the_image_of_altered_families(self):
        outcomes = Counter()
        for n, k in ((3, 2), (4, 2), (3, 3)):
            images = {pp_to_hv(p) for p in enumerate_pp(n, k)}
            for alter in (_flip_one, _swap_adjacent, _shift_start):
                altered = _altered_families(images, alter)
                outcomes += _decode_exactly_the_image(
                    hv_to_pp, images, altered
                )
        assert outcomes["accepted"] and outcomes["rejected"]

    def test_dyck_family_rejected(self):
        for p in enumerate_pp(3, 2):
            with pytest.raises(ValueError, match="row-height"):
                hv_to_pp(pp_to_dyck(p))


# Alterations of one path, each given as (start, steps) pairs.
def _flip_one(path):
    # one step replaced by the other letter of its model
    swap = {"U": "D", "D": "U", "H": "V", "V": "H"}
    steps = path.steps
    for j, s in enumerate(steps):
        yield path.start, steps[:j] + (swap[s],) + steps[j + 1 :]


def _swap_adjacent(path):
    steps = path.steps
    for j in range(len(steps) - 1):
        if steps[j] != steps[j + 1]:
            swapped = (steps[j + 1], steps[j])
            yield path.start, steps[:j] + swapped + steps[j + 2 :]


def _shift_start(path):
    x, y = path.start
    for dx in (-2, 2):
        yield (x + dx, y), path.steps


def _altered_families(images, alter):
    """Every family obtained from one image by altering one of its paths,
    skipping paths and families that are not valid as such."""
    out = set()
    for family in images:
        for t, path in enumerate(family.paths):
            for start, steps in alter(path):
                try:
                    moved = LatticePath(start, steps, path.model)
                    paths = family.paths[:t] + (moved,) + family.paths[t + 1 :]
                    out.add(PathFamily(paths))
                except ValueError:
                    pass
    return out


def _decode_exactly_the_image(decode, images, families):
    """Check that decode inverts every family in the image and rejects every
    other one; count the two outcomes."""
    encode = pp_to_dyck if decode is dyck_to_pp else pp_to_hv
    outcomes = Counter()
    for family in families:
        if family in images:
            assert encode(decode(family)) == family
            outcomes["accepted"] += 1
        else:
            with pytest.raises(ValueError, match="not a valid"):
                decode(family)
            outcomes["rejected"] += 1
    return outcomes


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(p=staircase_partitions())
    def test_both_encodings_invert(self, p):
        if p.k >= 1:
            assert dyck_to_pp(pp_to_dyck(p)) == p
        assert hv_to_pp(pp_to_hv(p)) == p


class TestLgvCount:
    def test_dyck_configuration(self):
        starts, ends = dyck_endpoints(2, 2)
        assert lgv_count(starts, ends, "dyck") == 3

    def test_hv_configuration(self):
        starts, ends = hv_endpoints(2, 2)
        assert lgv_count(starts, ends, "hv") == 3

    def test_single_path_is_plain_count(self):
        assert lgv_count([(0, 0)], [(6, 0)], "dyck") == 5
        assert lgv_count([(-1, 3)], [(1, 1)], "hv") == 6

    def test_unreachable_endpoint_counts_zero(self):
        assert lgv_count([(0, 0)], [(3, 0)], "dyck") == 0
        assert lgv_count([(0, 0)], [(-2, 0)], "hv") == 0

    def test_matches_closed_form_on_grid(self):
        for n in range(1, 5):
            for k in range(4):
                expected = product_poly_H(n).subs(x=k)
                assert lgv_count(*dyck_endpoints(n, k), "dyck") == expected
                assert lgv_count(*hv_endpoints(n, k), "hv") == expected

    def test_matches_hankel_table(self):
        for n in range(1, 5):
            for k in range(4):
                starts, ends = dyck_endpoints(n, k)
                assert lgv_count(starts, ends, "dyck") == hankel_det(
                    CATALAN, n, k
                )

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            lgv_count([(0, 0)], [(2, 0)], "diagonal")

    def test_long_single_dyck_path(self):
        # 600 steps, more than a recursion of one frame per step can take
        starts, ends = dyck_endpoints(300, 1)
        assert lgv_count(starts, ends, "dyck") == sequence_term("catalan", 300)

    @pytest.mark.parametrize(
        "endpoints, n, k",
        [
            (dyck_endpoints, 2.0, 1),
            (dyck_endpoints, -2, 1),
            (dyck_endpoints, 2, True),
            (hv_endpoints, -1, -1),
            (hv_endpoints, 2, 1.0),
        ],
    )
    def test_endpoints_need_indices(self, endpoints, n, k):
        with pytest.raises(ValueError):
            endpoints(n, k)


class TestBruteForce:
    def test_dyck_small(self):
        starts, ends = dyck_endpoints(2, 2)
        assert count_nonintersecting_brute(starts, ends, "dyck") == 3

    def test_hv_small(self):
        starts, ends = hv_endpoints(3, 1)
        assert count_nonintersecting_brute(starts, ends, "hv") == 5

    def test_single_path_unconstrained(self):
        assert count_nonintersecting_brute([(0, 0)], [(4, 0)], "dyck") == 2

    def test_agrees_with_determinant(self):
        for n in range(1, 4):
            for k in range(3):
                for model, pts in (
                    ("dyck", dyck_endpoints(n, k)),
                    ("hv", hv_endpoints(n, k)),
                ):
                    starts, ends = pts
                    assert count_nonintersecting_brute(
                        starts, ends, model
                    ) == lgv_count(starts, ends, model)

    def test_cap_enforced(self):
        starts, ends = dyck_endpoints(3, 3)
        with pytest.raises(ValueError, match="cap"):
            count_nonintersecting_brute(starts, ends, "dyck", cap=10)


def _filtered_product(n, k):
    """Row tuples of every staircase filling with entries in [0, k] that
    decreases along rows and columns, in row-major lexicographic order."""
    lengths = [n - 1 - i for i in range(n - 1)]
    out = []
    for values in itertools.product(range(k + 1), repeat=sum(lengths)):
        rows, start = [], 0
        for length in lengths:
            rows.append(values[start : start + length])
            start += length
        if all(
            (j == 0 or row[j - 1] >= v) and (i == 0 or rows[i - 1][j] >= v)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
        ):
            out.append(tuple(rows))
    return out


class TestRowWalkDifferential:
    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in range(1, 5) for k in range(4)] + [(5, 0), (5, 1)],
    )
    def test_same_sequence_as_filtered_product(self, n, k):
        walked = [p.rows for p in enumerate_pp(n, k)]
        assert walked == _filtered_product(n, k)


def _old_partition_check(n, k, rows):
    """The entry-by-entry validation PlanePartition ran before its one-pass
    acceptance, with the int checks on n, k and each entry added."""
    for name, value in (("n", n), ("k", k)):
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")
    if n < 1:
        raise ValueError("order n must be at least 1")
    if k < 0:
        raise ValueError("bound k must be nonnegative")
    expected = tuple(n - 1 - i for i in range(n - 1))
    if tuple(len(row) for row in rows) != expected:
        raise ValueError(f"shape mismatch: row lengths must be {expected}")
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if type(entry) is not int:
                raise TypeError(
                    f"entry {entry!r} at ({i + 1}, {j + 1}) is not an int"
                )
            if entry < 0:
                raise ValueError(f"negative entry at ({i + 1}, {j + 1})")
            if entry > k:
                raise ValueError(
                    f"entry {entry} at ({i + 1}, {j + 1}) exceeds the "
                    f"bound {k}"
                )
            if j > 0 and entry > row[j - 1]:
                raise ValueError(f"row {i + 1} is not weakly decreasing")
            if i > 0 and entry > rows[i - 1][j]:
                raise ValueError(f"column {j + 1} is not weakly decreasing")


def _old_family_check(paths):
    """The vertex-by-vertex disjointness check PathFamily ran before its
    set-size acceptance."""
    if len({p.model for p in paths}) > 1:
        raise ValueError("all paths in a family must share one model")
    seen = {}
    for idx, path in enumerate(paths):
        for v in path.vertices():
            other = seen.get(v)
            if other is not None and other != idx:
                raise ValueError(f"paths {other} and {idx} share the vertex {v}")
            seen[v] = idx


def _outcome(build, *args):
    try:
        build(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return "accepted"


@st.composite
def near_valid_fillings(draw):
    p = draw(staircase_partitions(n_max=5, k_max=3))
    n, k = p.n, p.k
    rows = [list(row) for row in p.rows]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(
            st.sampled_from(["entry", "order", "order", "shape", "n", "k"])
        )
        if kind == "order" and len(rows) >= 2 and all(rows):
            # raise one entry above its left or upper neighbour
            i = draw(st.integers(0, len(rows) - 2))
            if draw(st.booleans()):
                rows[i][-1] = rows[i][-2] + 1 if len(rows[i]) > 1 else -1
            else:
                rows[i + 1][0] = rows[i][0] + 1
        elif kind == "entry" and rows:
            i = draw(st.integers(0, len(rows) - 1))
            if not rows[i]:
                continue
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(
                st.one_of(
                    st.sampled_from([rows[i][j] - 1, rows[i][j] + 1]),
                    st.integers(-2, k + 2),
                    st.just(float(rows[i][j])),
                    st.floats(-1, k + 1, allow_nan=False),
                    st.booleans(),
                )
            )
        elif kind == "shape":
            action = draw(st.sampled_from(["drop", "add", "shorten", "extend"]))
            if action == "drop" and rows:
                rows.pop(draw(st.integers(0, len(rows) - 1)))
            elif action == "add":
                rows.append([0] * draw(st.integers(0, 2)))
            elif action == "shorten" and rows and rows[0]:
                rows[0].pop()
            elif action == "extend" and rows:
                rows[-1].append(0)
        elif kind == "n":
            n = draw(st.sampled_from([n - 1, n + 1, 0, float(n), True]))
        else:
            k = draw(st.sampled_from([k - 1, k + 1, -1, float(k), True, False]))
    if rows and len(rows[0]) >= 2 and draw(st.integers(0, 9)) == 0:
        rows[0][-1] = "1"  # an entry that does not compare with ints
    return n, k, tuple(tuple(row) for row in rows)


@st.composite
def dyck_words(draw, half_max=3):
    ups = draw(st.integers(0, half_max))
    word, height, ups_left = [], 0, ups
    for _ in range(2 * ups):
        if ups_left and (height == 0 or draw(st.booleans())):
            word.append("U")
            height += 1
            ups_left -= 1
        else:
            word.append("D")
            height -= 1
    return tuple(word)


@st.composite
def path_lists(draw):
    source = draw(st.sampled_from(["encoded", "shifted", "random"]))
    if source != "random":
        p = draw(staircase_partitions(n_max=4, k_max=3))
        paths = list(draw(st.sampled_from([pp_to_dyck, pp_to_hv]))(p).paths)
        if source == "shifted" and paths:
            t = draw(st.integers(0, len(paths) - 1))
            (x, y), path = paths[t].start, paths[t]
            dx = draw(st.integers(-2, 2))
            dy = 0 if path.model == "dyck" else draw(st.integers(-2, 2))
            paths[t] = LatticePath((x + dx, y + dy), path.steps, path.model)
        return paths
    models = draw(st.sampled_from([("dyck",), ("hv",), ("dyck", "hv")]))
    paths = []
    for _ in range(draw(st.integers(0, 4))):
        model = draw(st.sampled_from(models))
        x = draw(st.integers(-3, 3))
        if model == "dyck":
            paths.append(LatticePath((x, 0), draw(dyck_words()), model))
        else:
            y = draw(st.integers(-2, 3))
            steps = tuple(draw(st.lists(st.sampled_from("HV"), max_size=6)))
            paths.append(LatticePath((x, y), steps, model))
    return paths


class TestValidationFastPaths:
    @settings(max_examples=150, deadline=None)
    @given(filling=near_valid_fillings())
    def test_partition_check_matches_entry_loop(self, filling):
        assert _outcome(PlanePartition, *filling) == _outcome(
            _old_partition_check, *filling
        )

    @settings(max_examples=150, deadline=None)
    @given(paths=path_lists())
    def test_family_check_matches_vertex_loop(self, paths):
        assert _outcome(PathFamily, tuple(paths)) == _outcome(
            _old_family_check, paths
        )

    def test_touching_crossing_and_disjoint_families(self):
        touching = (
            LatticePath((0, 0), ("U", "D"), "dyck"),
            LatticePath((2, 0), ("U", "D"), "dyck"),
        )
        crossing = (
            LatticePath((-1, 2), ("H", "V", "V", "H"), "hv"),
            LatticePath((-1, 1), ("V", "H", "H"), "hv"),
        )
        disjoint = pp_to_hv(STAIR_EXAMPLE).paths
        for paths in (touching, crossing, disjoint):
            assert _outcome(PathFamily, paths) == _outcome(
                _old_family_check, paths
            )
        assert "share the vertex (2, 0)" in _outcome(PathFamily, touching)[1]
        assert _outcome(PathFamily, crossing)[0] is ValueError
        assert _outcome(PathFamily, disjoint) == "accepted"


class TestExactEntryPoints:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: PlanePartition(2, 1, ((0.5,),)),
            lambda: PlanePartition(2, True, ((True,),)),
            lambda: PlanePartition(2.0, 1, ((1,),)),
            lambda: enumerate_pp(3, 1.5),
            lambda: enumerate_pp(True, 1),
            lambda: lgv_count([(0.5, 0)], [(2, 0)], "dyck"),
            lambda: lgv_count([(0, 0)], [(2, True)], "dyck"),
            lambda: count_nonintersecting_brute([(0, 0)], [(2.0, 0)], "dyck"),
            lambda: count_nonintersecting_brute([(0, 0, 0)], [(2, 0)], "hv"),
        ],
        ids=[
            "float-entry",
            "bool-bound-and-entry",
            "float-order",
            "enumerate-float-bound",
            "enumerate-bool-order",
            "lgv-float-start",
            "lgv-bool-end",
            "brute-float-end",
            "brute-triple",
        ],
    )
    def test_inexact_input_raises_type_error(self, call):
        with pytest.raises(TypeError):
            call()
