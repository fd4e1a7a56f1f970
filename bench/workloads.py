"""Seeded workloads of the benchmark.

Three workloads are lists of cold CLI invocations; the fourth is a stream of
library calls made inside one process. Every size comes from a fixed finite
set and every parameter from a fixed list, so the whole universe of
invocations a seed can produce is enumerable (`Slot.argvs()` and
`session_universe()` list it), and the expected digest of the output of each
member is recorded in `expected.json`.

A seed picks, for every slot of a CLI workload, one variant and one output
format, and then shuffles the order. The variants of a slot differ only in
the sign of a parameter, the Jacobi spec or the output format, which cost
about the same, so the work of a run hardly depends on the seed. The session
stream draws its repeated queries and parameters from the seed, in fixed
proportions of query kinds, and interleaves them in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class Slot:
    """One CLI invocation in a workload's op list.

    `base` holds the argv words every variant shares; the seed adds one
    entry of `variants` and one `--format` value from `formats`.
    """

    base: tuple
    variants: tuple = ((),)
    formats: tuple = FORMATS

    def argvs(self):
        for variant in self.variants:
            for fmt in self.formats:
                yield self.base + variant + ("--format", fmt)


def _verify(suite, *grid):
    return ("verify", "--suite", suite) + grid


# numeric-grid: integer Bareiss through the Hankel table, and univariate
# product-form Poly multiplication inside product_poly_H (th1).
NUMERIC_GRID = (
    Slot(_verify("th1", "--n-max", "20", "--k-max", "20")),
    Slot(
        ("hankel", "--family", "catalan", "--n", "0..30", "--k", "0..30"),
        formats=("text", "json"),
    ),
    Slot(("hankel", "--family", "central", "--n", "0..24", "--k", "0..24")),
    Slot(("hankel", "--family", "middle", "--n", "0..26", "--k", "0..26")),
    Slot(("hankel", "--family", "shifted_catalan", "--n", "0..24", "--k", "0..24")),
    Slot(
        ("hankel", "--family", "Mb", "--n", "0..18", "--k", "0..18"),
        (("--b", "3"), ("--b", "-3")),
    ),
    Slot(
        ("hankel", "--family", "Mcap", "--n", "0..18", "--k", "0..18"),
        (("--b", "3"), ("--b", "-3")),
    ),
    Slot(
        ("hankel", "--family", "Mb", "--n", "0..14", "--k", "0..14"),
        (("--b", "1/2"), ("--b", "-1/2")),
    ),
    Slot(_verify("th10", "--n-max", "22", "--k-max", "18")),
    Slot(_verify("eq1_6", "--n-max", "22", "--k-max", "22")),
)

# symbolic: det_poly on both sides of the Laplace (<= 6) / Bareiss (>= 7)
# split, and bivariate Poly multiplication, substitution and shift_x.
# The CLI has no formal-parameter Mb/Mcap table; a Jacobi spec written in b
# gives the same formal-parameter Hankel path.
SYMBOLIC = (
    Slot(("poly", "--which", "Hb", "--n", "9")),
    Slot(("poly", "--which", "V", "--n", "8")),
    Slot(("poly", "--which", "H2", "--n", "9")),
    Slot(("poly", "--which", "H", "--n", "18")),
    Slot(_verify("condensation", "--n-max", "5")),
    Slot(_verify("cor7", "--n-max", "5", "--k-max", "8")),
    Slot(_verify("th2", "--n-max", "8")),
    Slot(_verify("th5", "--n-max", "7")),
    Slot(_verify("h1_equals_h0_shift", "--n-max", "8")),
    Slot(
        ("hankel", "--family", "jacobi", "--n", "0..7", "--k", "0..9"),
        (
            ("--jacobi", "s: [b+1], 2; t: [], 1"),
            ("--jacobi", "s: [b+2], 2; t: [2-b], 1"),
            ("--jacobi", "s: [b], 2; t: [], 1"),
        ),
    ),
)

# staircase: plane-partition enumeration, the path encoders and decoders,
# LGV and brute-force counting, and large CLI output. Counting ops and
# listing ops sit side by side. The listing ops have one fixed format each,
# because the format sets their time and the workload's peak RSS.
STAIRCASE = (
    Slot(_verify("pp-count", "--n-max", "6", "--k-max", "3")),
    Slot(("enumerate-pp", "--n", "6", "--k", "3"), formats=("text", "json")),
    Slot(("enumerate-pp", "--n", "5", "--k", "5"), formats=("text", "json")),
    Slot(("enumerate-pp", "--list", "--n", "6", "--k", "3"), formats=("json",)),
    Slot(("enumerate-pp", "--list", "--n", "5", "--k", "5"), formats=("text",)),
    Slot(_verify("bijection-roundtrip", "--n-max", "5", "--k-max", "3")),
    Slot(("bijection", "--which", "dyck", "--n", "5", "--k", "3"), formats=("text", "json")),
    Slot(("bijection", "--which", "hv", "--n", "5", "--k", "3"), formats=("text", "json")),
)

CLI_WORKLOADS = {
    "numeric-grid": NUMERIC_GRID,
    "symbolic": SYMBOLIC,
    "staircase": STAIRCASE,
}


def cli_ops(workload: str, seed: int) -> list:
    """The seeded op list of a CLI workload: one argv tuple per slot."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [
        slot.base + rng.choice(slot.variants) + ("--format", rng.choice(slot.formats))
        for slot in CLI_WORKLOADS[workload]
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# session: one process, a stream of library calls from the README API.
# Queries are flat lists; their "|"-joined text keys the expected digests.
#
# Every stream asks for each hankel cell, closed-form member and LGV
# configuration below once, so every stream computes the same cold work;
# the seed draws the repeats (cache hits) and the evaluation points of the
# closed forms.

SESSION_FAMILIES = (
    ("catalan", ""),
    ("central", ""),
    ("middle", ""),
    ("shifted_catalan", ""),
    ("Mb", "2"),
    ("Mb", "-1"),
    ("Mcap", "3"),
    ("Mcap", "1/2"),
)
SESSION_N_MAX = 10
SESSION_K_MAX = 8
# closed-form family and its largest n; members are evaluated at x = 0..10
SESSION_CLOSED = (("H", 14), ("h", 14), ("Hb", 6), ("H2", 7), ("V", 5))
SESSION_X_MAX = 10
# b values for the bivariate families Hb and V
SESSION_B = ("1/2", "2", "-1")
BIVARIATE = ("Hb", "V")
SESSION_LGV = (("dyck", 7, 4), ("hv", 7, 4))
# (tag, n_max, k_max or -1, comma-joined b values or "")
SESSION_SUITES = (
    ("th1", 6, 6, ""),
    ("eq1_6", 6, 6, ""),
    ("th4", 3, 3, "1/2,3"),
    ("th2", 5, -1, ""),
    ("th5", 5, -1, ""),
    ("h1_equals_h0_shift", 5, -1, ""),
    ("lemma8", 6, 4, ""),
    ("cor7", 3, 3, ""),
)
SESSION_SUITE_CALLS = 5
# repeated queries of each kind, drawn from that kind's own index set
SESSION_REPEATS = {"hankel": 408, "closed": 149, "lgv": 50}


def _hankel_cells() -> list:
    return [
        ["hankel", family, b, n, k]
        for family, b in SESSION_FAMILIES
        for n in range(SESSION_N_MAX + 1)
        for k in range(SESSION_K_MAX + 1)
    ]


def _closed_members() -> list:
    return [(which, n) for which, n_max in SESSION_CLOSED for n in range(n_max + 1)]


def _lgv_configs() -> list:
    return [
        ["lgv", model, n, k]
        for model, n_max, k_max in SESSION_LGV
        for n in range(1, n_max + 1)
        for k in range(k_max + 1)
    ]


def _with_repeats(items: list, kind: str, rng: random.Random) -> list:
    return items + [rng.choice(items) for _ in range(SESSION_REPEATS[kind])]


def session_queries(seed: int) -> list:
    rng = random.Random(f"session:{seed}")
    queries = _with_repeats(_hankel_cells(), "hankel", rng)
    for which, n in _with_repeats(_closed_members(), "closed", rng):
        b = rng.choice(SESSION_B) if which in BIVARIATE else ""
        queries.append(["closed", which, n, rng.randint(0, SESSION_X_MAX), b])
    queries += _with_repeats(_lgv_configs(), "lgv", rng)
    queries += [["verify", *spec] for spec in SESSION_SUITES] * SESSION_SUITE_CALLS
    # The interleaving does not depend on the seed. Which query first fills
    # a table or cache decides which queries are slow: over six seeds, the
    # range of query_p50_ms was 20 % of its median and that of
    # query_tail_ms 28 % with a seeded order, against 8 % and 6 % with this
    # fixed one.
    random.Random("session:order").shuffle(queries)
    return queries


def query_key(query) -> str:
    return "|".join(str(part) for part in query)


def session_universe() -> list:
    out = _hankel_cells()
    for which, n in _closed_members():
        for b in SESSION_B if which in BIVARIATE else ("",):
            out += [["closed", which, n, x, b] for x in range(SESSION_X_MAX + 1)]
    out += _lgv_configs()
    out += [["verify", *spec] for spec in SESSION_SUITES]
    return out


WORKLOADS = tuple(CLI_WORKLOADS) + ("session",)


def ops_per_run(workload: str) -> int:
    """Ops (CLI invocations, or library queries) in one repetition."""
    if workload == "session":
        return len(session_queries(0))
    return len(CLI_WORKLOADS[workload])
