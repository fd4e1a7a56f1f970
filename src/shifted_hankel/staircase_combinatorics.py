"""Staircase plane partitions and their lattice-path encodings.

A staircase plane partition of order n bounded by k is a filling of the
shape (n-1, n-2, ..., 1) with integers in [0, k] that decreases weakly
along rows and columns.  This module enumerates them, encodes them as
families of nonintersecting Dyck paths (one path per level curve) or
monotone HV paths (one path per row), and counts the families two ways:
via the transfer-matrix determinant and by brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterator

from .exact_core import det_exact
from .hankel_identities import hankel_det, product_poly_H
from .ortho_moments import MomentSequence
from .report import VerificationReport

Point = tuple[int, int]

# Unit step vectors; x always moves right except for the HV vertical step.
_STEP: dict[str, Point] = {
    "U": (1, 1),
    "D": (1, -1),
    "H": (1, 0),
    "V": (0, -1),
}

_ALPHABET: dict[str, tuple[str, str]] = {"dyck": ("U", "D"), "hv": ("H", "V")}


@dataclass(frozen=True)
class PlanePartition:
    """Weakly decreasing filling of the staircase shape (n-1, ..., 1).

    Row i (1-based) holds n-i entries; every entry lies in [0, k] and
    entries decrease weakly left to right and top to bottom.
    """

    n: int
    k: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # One pass per row against the row above accepts a valid filling;
        # anything else goes to the entry-by-entry check, which names the
        # first fault.
        if not self._fits():
            self._raise_first_fault()

    def _fits(self) -> bool:
        n, k = self.n, self.k
        if type(n) is not int or type(k) is not int or n < 1 or k < 0:
            return False
        if len(self.rows) != n - 1:
            return False
        width = n - 1
        above = (k,) * width
        for row in self.rows:
            if len(row) != width:
                return False
            left = k
            for a, e in zip(above, row):
                if type(e) is not int or e > a or e > left:
                    return False
                left = e
            if left < 0:
                return False
            above = row
            width -= 1
        return True

    def _raise_first_fault(self) -> None:
        for name in ("n", "k"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.n < 1:
            raise ValueError("order n must be at least 1")
        if self.k < 0:
            raise ValueError("bound k must be nonnegative")
        expected = tuple(self.n - 1 - i for i in range(self.n - 1))
        if tuple(len(row) for row in self.rows) != expected:
            raise ValueError(
                f"shape mismatch: row lengths must be {expected}"
            )
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                if type(entry) is not int:
                    raise TypeError(
                        f"entry {entry!r} at ({i + 1}, {j + 1}) is not an int"
                    )
                if entry < 0:
                    raise ValueError(f"negative entry at ({i + 1}, {j + 1})")
                if entry > self.k:
                    raise ValueError(
                        f"entry {entry} at ({i + 1}, {j + 1}) exceeds the "
                        f"bound {self.k}"
                    )
                if j > 0 and entry > row[j - 1]:
                    raise ValueError(
                        f"row {i + 1} is not weakly decreasing"
                    )
                if i > 0 and entry > self.rows[i - 1][j]:
                    raise ValueError(
                        f"column {j + 1} is not weakly decreasing"
                    )


@dataclass(frozen=True)
class LatticePath:
    """Directed path given by a start point and a step word.

    Dyck paths use steps U=(1,1), D=(1,-1), start and end on the
    horizontal axis, and never dip below it.  HV paths use H=(1,0),
    V=(0,-1) and are monotone by construction.
    """

    start: Point
    steps: tuple[str, ...]
    model: str

    def __post_init__(self) -> None:
        if self.model not in _ALPHABET:
            raise ValueError(f"unknown path model {self.model!r}")
        allowed = _ALPHABET[self.model]
        for s in self.steps:
            if s not in allowed:
                raise ValueError(
                    f"step {s!r} is not valid for model {self.model!r}"
                )
        if self.model == "dyck":
            y = self.start[1]
            if y != 0:
                raise ValueError("Dyck path must start on the axis")
            for s in self.steps:
                y += _STEP[s][1]
                if y < 0:
                    raise ValueError("Dyck path dips below the axis")
            if y != 0:
                raise ValueError("Dyck path must end on the axis")

    @property
    def end(self) -> Point:
        x, y = self.start
        for s in self.steps:
            dx, dy = _STEP[s]
            x += dx
            y += dy
        return (x, y)

    def vertices(self) -> tuple[Point, ...]:
        x, y = self.start
        out = [(x, y)]
        for s in self.steps:
            dx, dy = _STEP[s]
            x += dx
            y += dy
            out.append((x, y))
        return tuple(out)


@dataclass(frozen=True)
class PathFamily:
    """Ordered family of pairwise vertex-disjoint paths in one model."""

    paths: tuple[LatticePath, ...]

    def __post_init__(self) -> None:
        if len({p.model for p in self.paths}) > 1:
            raise ValueError("all paths in a family must share one model")
        # Every step raises x or, at equal x, lowers y, so no path visits a
        # vertex twice and the paths are disjoint exactly when the vertex
        # counts add up; only a collision needs the loop that names the pair.
        vertices = [p.vertices() for p in self.paths]
        if sum(map(len, vertices)) == len(set().union(*vertices)):
            return
        seen: dict[Point, int] = {}
        for idx, path_vertices in enumerate(vertices):
            for v in path_vertices:
                other = seen.get(v)
                if other is not None and other != idx:
                    raise ValueError(
                        f"paths {other} and {idx} share the vertex {v}"
                    )
                seen[v] = idx


def partition_to_text(p: PlanePartition) -> str:
    """Rows joined by ';', entries by ','; the empty shape renders as ""."""
    return ";".join([",".join(map(str, row)) for row in p.rows])


def partition_from_text(text: str, k: int) -> PlanePartition:
    """Inverse of partition_to_text; the bound k is not inferable."""
    text = text.strip()
    if not text:
        return PlanePartition(1, k, ())
    rows = tuple(
        tuple(int(tok) for tok in chunk.split(",")) for chunk in text.split(";")
    )
    return PlanePartition(len(rows) + 1, k, rows)


def path_to_text(path: LatticePath) -> str:
    base = f"({path.start[0]},{path.start[1]})"
    return base + (" " + "".join(path.steps) if path.steps else "")


def path_from_text(text: str, model: str) -> LatticePath:
    text = text.strip()
    head, _, tail = text.partition(" ")
    word = tail.strip()
    if not (head.startswith("(") and head.endswith(")")) or (
        word and not word.isalpha()
    ):
        raise ValueError(f"malformed path text {text!r}")
    try:
        xs, ys = head[1:-1].split(",")
        start = (int(xs), int(ys))
    except ValueError:
        raise ValueError(f"malformed path text {text!r}") from None
    return LatticePath(start, tuple(word), model)


def enumerate_pp(n: int, k: int) -> Iterator[PlanePartition]:
    """Stream all partitions in lexicographic order of row-major entries."""
    if type(n) is not int or type(k) is not int:
        raise TypeError(f"n and k must be ints, got {n!r} and {k!r}")
    if n < 1:
        raise ValueError("order n must be at least 1")
    if k < 0:
        raise ValueError("bound k must be nonnegative")
    return _walk(n, k)


def _walk(n: int, k: int) -> Iterator[PlanePartition]:
    # Row i is any weakly decreasing tuple lying entrywise under the first
    # n-1-i entries of row i-1 (row 0 under (k, ..., k)).  The admissible
    # rows under each cap are listed once, in lexicographic order, in a
    # dict that lives as long as this generator.
    if n == 1:
        yield PlanePartition(1, k, ())
        return
    lists: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def rows_under(cap: tuple[int, ...]) -> list[tuple[int, ...]]:
        rows = lists.get(cap)
        if rows is None:
            rows = [(v,) for v in range(cap[0] + 1)]
            for c in cap[1:]:
                rows = [
                    r + (v,) for r in rows for v in range(min(c, r[-1]) + 1)
                ]
            lists[cap] = rows
        return rows

    last = n - 2

    def fill(i: int, prefix: tuple, cap: tuple) -> Iterator[PlanePartition]:
        if i == last:
            for row in rows_under(cap):
                yield PlanePartition(n, k, prefix + (row,))
            return
        for row in rows_under(cap):
            yield from fill(i + 1, prefix + (row,), row[:-1])

    yield from fill(0, (), (k,) * (n - 1))


def count_pp(n: int, k: int) -> int:
    return sum(1 for _ in enumerate_pp(n, k))


def count_pp_vs_formulas(n: int, k: int) -> VerificationReport:
    """Compare the enumerated count against three closed-form routes."""
    enum_count = count_pp(n, k)
    poly_value = product_poly_H(n).subs(x=k)
    binom_det = det_exact(
        [[comb(k + i + j, 2 * j) for j in range(n)] for i in range(n)]
    )
    hankel_value = hankel_det(MomentSequence("catalan"), n, k)
    values = {
        "enumeration": str(enum_count),
        "product": str(poly_value),
        "binomial_det": str(binom_det),
        "hankel": str(hankel_value),
    }
    report = VerificationReport(
        suite="pp-count", grid={"n": n, "k": k, "values": values}
    )
    for value in (poly_value, binom_det, hankel_value):
        report.add(
            n=n, k=k, ok=value == enum_count, lhs=str(enum_count), rhs=str(value)
        )
    return report


def dyck_endpoints(n: int, k: int) -> tuple[list[Point], list[Point]]:
    """Start and end points of the k level-curve paths, innermost first."""
    starts = [(-2 * t, 0) for t in range(k)]
    ends = [(2 * n + 2 * t, 0) for t in range(k)]
    return starts, ends


def hv_endpoints(n: int, k: int) -> tuple[list[Point], list[Point]]:
    """Start and end points of the n row paths, shortest first."""
    starts = [(-1, k + i - 1) for i in range(n)]
    ends = [(2 * i - 1, i - 1) for i in range(n)]
    return starts, ends


def pp_to_dyck(p: PlanePartition) -> PathFamily:
    """Encode a partition as one Dyck path per level curve.

    Path t (0-based) traces the boundary of the cells holding entries
    at least t+1: the profile is read from the top right corner, each
    horizontal boundary edge becomes U and each vertical one D, and the
    word is padded with 2t+1 leading U and trailing D so consecutive
    curves cannot touch.  Path t runs from (-2t, 0) to (2n+2t, 0).
    """
    paths = []
    for t in range(p.k):
        threshold = t + 1
        lam = [sum(1 for e in row if e >= threshold) for row in p.rows]
        word = ["U"] * (2 * t + 1)
        prev = p.n - 1
        for part in lam:
            word.extend("U" * (prev - part))
            word.append("D")
            prev = part
        word.extend("U" * prev)
        word.extend("D" * (2 * t + 1))
        paths.append(LatticePath((-2 * t, 0), tuple(word), "dyck"))
    return PathFamily(tuple(paths))


def dyck_to_pp(f: PathFamily) -> PlanePartition:
    """Invert pp_to_dyck; reject families outside its image."""
    if not f.paths:
        raise ValueError("cannot infer the shape from an empty family")
    k = len(f.paths)
    first = len(f.paths[0].steps)
    try:
        if first < 2 or first % 2:
            raise ValueError("innermost path has an odd step count")
        n = first // 2
        level_shapes = []
        for t, path in enumerate(f.paths):
            if path.start != (-2 * t, 0):
                raise ValueError(f"path {t} starts at {path.start}")
            if len(path.steps) != 2 * n + 4 * t:
                raise ValueError(f"path {t} has the wrong length")
            pad = 2 * t + 1
            body = path.steps[pad : len(path.steps) - pad]
            if set(path.steps[:pad]) - {"U"} or set(path.steps[-pad:]) - {"D"}:
                raise ValueError(f"path {t} lacks the forced padding")
            lam = []
            height = pad
            for s in body:
                if s == "U":
                    height += 1
                else:
                    height -= 1
                    lam.append(2 * t + n - len(lam) - 1 - height)
            if len(lam) != n - 1:
                raise ValueError(f"path {t} is not balanced")
            level_shapes.append(lam)
        rows = tuple(
            tuple(
                sum(1 for lam in level_shapes if lam[i] >= j + 1)
                for j in range(n - 1 - i)
            )
            for i in range(n - 1)
        )
        result = PlanePartition(n, k, rows)
    except ValueError as exc:
        raise ValueError(f"not a valid level-curve family: {exc}") from None
    if pp_to_dyck(result) != f:
        raise ValueError(
            "not a valid level-curve family: re-encoding does not reproduce it"
        )
    return result


def pp_to_hv(p: PlanePartition) -> PathFamily:
    """Encode a partition as one monotone HV path per row.

    Path i (0-based) carries row n-i: it runs from (-1, k+i-1) down to
    (2i-1, i-1) with 2i horizontal steps whose heights are i forced
    copies of k+i-1 followed by the row entries shifted up by i-1.
    """
    paths = []
    for i in range(p.n):
        top = p.k + i - 1
        heights = [top] * i
        if i >= 1:
            heights.extend(e + i - 1 for e in p.rows[p.n - i - 1])
        word = []
        y = top
        for h in heights:
            word.extend("V" * (y - h))
            word.append("H")
            y = h
        word.extend("V" * (y - (i - 1)))
        paths.append(LatticePath((-1, top), tuple(word), "hv"))
    return PathFamily(tuple(paths))


def hv_to_pp(f: PathFamily) -> PlanePartition:
    """Invert pp_to_hv; reject families outside its image."""
    if not f.paths:
        raise ValueError("cannot infer the shape from an empty family")
    n = len(f.paths)
    k = f.paths[0].start[1] + 1
    try:
        if k < 0:
            raise ValueError("inferred bound is negative")
        rows: list[tuple[int, ...]] = [()] * (n - 1)
        for i, path in enumerate(f.paths):
            if path.start != (-1, k + i - 1):
                raise ValueError(f"path {i} starts at {path.start}")
            if path.end != (2 * i - 1, i - 1):
                raise ValueError(f"path {i} ends at {path.end}")
            heights = []
            y = path.start[1]
            for s in path.steps:
                if s == "H":
                    heights.append(y)
                else:
                    y -= 1
            if len(heights) != 2 * i:
                raise ValueError(f"path {i} has the wrong horizontal count")
            if any(h != k + i - 1 for h in heights[:i]):
                raise ValueError(f"path {i} lacks the forced top run")
            if i >= 1:
                rows[n - i - 1] = tuple(h - (i - 1) for h in heights[i:])
        result = PlanePartition(n, k, tuple(rows))
    except ValueError as exc:
        raise ValueError(f"not a valid row-height family: {exc}") from None
    if pp_to_hv(result) != f:
        raise ValueError(
            "not a valid row-height family: re-encoding does not reproduce it"
        )
    return result


@lru_cache(maxsize=None)
def _dyck_count(length: int, y0: int, y1: int) -> int:
    # Number of U/D words of the given length from height y0 to y1 that
    # keep the height nonnegative throughout.
    if y0 < 0 or y1 < 0:
        return 0
    if length == 0:
        return 1 if y0 == y1 else 0
    total = _dyck_count(length - 1, y0 + 1, y1)
    if y0 > 0:
        total += _dyck_count(length - 1, y0 - 1, y1)
    return total


def _single_count(model: str, a: Point, e: Point) -> int:
    if model == "dyck":
        dx = e[0] - a[0]
        if dx < 0 or a[1] < 0 or e[1] < 0:
            return 0
        return _dyck_count(dx, a[1], e[1])
    dx = e[0] - a[0]
    dy = a[1] - e[1]
    if dx < 0 or dy < 0:
        return 0
    return comb(dx + dy, dx)


def _check_endpoints(starts: list[Point], ends: list[Point], model: str):
    if model not in _ALPHABET:
        raise ValueError(f"unknown path model {model!r}")
    if len(starts) != len(ends):
        raise ValueError("start and end lists must have equal length")
    for point in (*starts, *ends):
        if len(point) != 2 or any(type(c) is not int for c in point):
            raise TypeError(f"endpoints must be pairs of ints, got {point!r}")


def lgv_count(starts: list[Point], ends: list[Point], model: str) -> int:
    """Count nonintersecting path families as a determinant.

    Entry (i, j) of the matrix is the number of single paths from
    starts[i] to ends[j]; for endpoint configurations where only the
    identity pairing can avoid intersections, the determinant equals
    the number of vertex-disjoint families.
    """
    _check_endpoints(starts, ends, model)
    if not starts:
        return 1
    matrix = [[_single_count(model, a, e) for e in ends] for a in starts]
    return det_exact(matrix)


def _iter_paths(model: str, a: Point, e: Point) -> Iterator[tuple[str, ...]]:
    up, down = _ALPHABET[model]
    acc: list[str] = []

    def rec(x: int, y: int) -> Iterator[tuple[str, ...]]:
        if model == "dyck":
            if x == e[0]:
                if y == e[1]:
                    yield tuple(acc)
                return
            if x > e[0]:
                return
            acc.append(up)
            yield from rec(x + 1, y + 1)
            acc.pop()
            if y > 0:
                acc.append(down)
                yield from rec(x + 1, y - 1)
                acc.pop()
        else:
            if x == e[0] and y == e[1]:
                yield tuple(acc)
                return
            if x < e[0]:
                acc.append(up)
                yield from rec(x + 1, y)
                acc.pop()
            if y > e[1]:
                acc.append(down)
                yield from rec(x, y - 1)
                acc.pop()

    return rec(*a)


def _vertex_set(a: Point, steps: tuple[str, ...]) -> frozenset[Point]:
    x, y = a
    out = {(x, y)}
    for s in steps:
        dx, dy = _STEP[s]
        x += dx
        y += dy
        out.add((x, y))
    return frozenset(out)


def count_nonintersecting_brute(
    starts: list[Point],
    ends: list[Point],
    model: str,
    cap: int = 100_000,
) -> int:
    """Count vertex-disjoint identity-pairing families by enumeration.

    The product of the single-path counts bounds the search space; it
    must not exceed cap.
    """
    _check_endpoints(starts, ends, model)
    if not starts:
        return 1
    singles = [_single_count(model, a, e) for a, e in zip(starts, ends)]
    total = prod(singles)
    if total > cap:
        raise ValueError(f"brute-force cap exceeded: {total} > {cap}")
    if total == 0:
        return 0
    options = [
        [_vertex_set(a, steps) for steps in _iter_paths(model, a, e)]
        for a, e in zip(starts, ends)
    ]

    def rec(i: int, occupied: frozenset[Point]) -> int:
        if i == len(options):
            return 1
        hits = 0
        for vs in options[i]:
            if occupied.isdisjoint(vs):
                hits += rec(i + 1, occupied | vs)
        return hits

    return rec(0, frozenset())
