"""Correctness checks of every op the benchmark runs.

Each op's output is compared byte for byte, by digest, with the output
recorded in `expected.json`. On top of that, some outputs are checked
against integers computed here, independently of the library:

- Catalan Hankel table entries, plane-partition counts, LGV path counts and
  the closed form H(n) at x = k all equal the product
  prod_{1 <= i <= j <= n-1} (2k + i + j) / (i + j);
- a verification suite must report the number of cells its grid implies,
  and none of them failing.

Each check returns None when the output is correct, else a reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def pp_count(n: int, k: int) -> int:
    """Staircase plane partitions of order n bounded by k, by the product formula."""
    value = Fraction(1)
    for i in range(1, n):
        for j in range(i, n):
            value *= Fraction(2 * k + i + j, i + j)
    return int(value)


def suite_cells(tag: str, n: int, k: int, n_b: int = 1) -> int:
    """Cells a suite reports over its grid."""
    if tag in ("th1", "th10"):
        return (n + 1) * (k + 1)
    if tag == "th4":
        return n_b * (n + 1) * (k + 1)
    if tag == "eq1_6":
        return n * k
    if tag in ("th2", "th5", "h1_equals_h0_shift"):
        return n + 1
    if tag == "lemma8":
        return n + 1 + k
    if tag == "cor7":
        return (n + 1) * (2 * k - 1)
    if tag == "condensation":
        return 5 * (n + 1)
    if tag == "pp-count":
        return n * (k + 1)
    if tag == "bijection-roundtrip":
        return 2 * n * (k + 1)
    raise ValueError(f"no cell count for suite {tag!r}")


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _verify_cells(fmt: str, text: str):
    """(pass, fail) counts and the cell rows, as the output reports them."""
    if fmt == "json":
        obj = json.loads(text)
        return obj["summary"]["pass"], obj["summary"]["fail"], obj["cells"]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        passed = sum(1 for row in rows if row["status"] == "pass")
        return passed, len(rows) - passed, rows
    match = re.search(r"^cells: (\d+) pass, (\d+) fail$", text, re.M)
    if not match:
        return 0, 0, []
    return int(match.group(1)), int(match.group(2)), []


def _check_verify(argv, fmt, text):
    tag = _opt(argv, "--suite")
    n, k = int(_opt(argv, "--n-max")), int(_opt(argv, "--k-max", "0"))
    passed, failed, rows = _verify_cells(fmt, text)
    want = suite_cells(tag, n, k)
    if failed or passed != want:
        return f"{passed} cells pass and {failed} fail, expected {want} passing"
    if tag == "pp-count":
        for row in rows:
            if int(row["lhs"]) != pp_count(int(row["n"]), int(row["k"])):
                return f"enumerated count at n={row['n']} k={row['k']} is {row['lhs']}"
    return None


def _check_catalan_table(fmt, text):
    if fmt == "json":
        obj = json.loads(text)
        ns = range(obj["n"][0], obj["n"][1] + 1)
        ks = range(obj["k"][0], obj["k"][1] + 1)
        table = obj["values"]
    else:
        lines = [line.split() for line in text.splitlines()]
        ks = [int(k) for k in lines[0][1:]]
        ns = [int(row[0]) for row in lines[1:]]
        table = [row[1:] for row in lines[1:]]
    cells = 0
    for n, row in zip(ns, table):
        for k, value in zip(ks, row):
            cells += 1
            if int(value) != pp_count(n, k):
                return f"catalan u({n},{k}) = {value}"
    if cells != len(ns) * len(ks) or not cells:
        return f"catalan table has {cells} cells"
    return None


def _check_enumerate(argv, fmt, text):
    want = pp_count(int(_opt(argv, "--n")), int(_opt(argv, "--k")))
    if fmt == "json":
        obj = json.loads(text)
        count, listed = obj["count"], obj.get("partitions")
    else:
        lines = text.splitlines()
        count = int(lines[0].removeprefix("count: "))
        listed = lines[1:] if "--list" in argv else None
    if count != want:
        return f"count {count}, expected {want}"
    if listed is not None and len(listed) != want:
        return f"{len(listed)} partitions listed, expected {want}"
    return None


def check_cli(argv, stdout: bytes, expected):
    """Check one CLI op's stdout; argv is the op without the program name.

    With `expected` None only the independent checks run (when recording).
    """
    if expected is not None:
        want = expected.get(" ".join(argv))
        if want is None:
            return "no recorded output for this invocation"
        if digest(stdout) != want:
            return "stdout differs from the recorded output"
    fmt = _opt(argv, "--format", "text")
    text = stdout.decode("utf-8")
    if argv[0] == "verify":
        return _check_verify(argv, fmt, text)
    if argv[0] == "hankel" and _opt(argv, "--family") == "catalan":
        return _check_catalan_table(fmt, text)
    if argv[0] == "enumerate-pp":
        return _check_enumerate(argv, fmt, text)
    return None


def _session_value(query):
    """The result a session query must give, where it is known here."""
    kind = query[0]
    if kind == "hankel" and query[1] == "catalan":
        return str(pp_count(query[3], query[4]))
    if kind == "closed" and query[1] == "H":
        return str(pp_count(query[2], query[3]))
    if kind == "lgv":
        return str(pp_count(query[2], query[3]))
    if kind == "verify":
        _, tag, n, k, b_values = query
        n_b = len(b_values.split(",")) if b_values else 1
        return f"True:{suite_cells(tag, n, max(k, 0), n_b)}"
    return None


def check_session(query, result: str, key: str, expected):
    if expected is not None:
        want = expected.get(key)
        if want is None:
            return "no recorded result for this query"
        if digest(result.encode("utf-8")) != want:
            return "result differs from the recorded result"
    value = _session_value(query)
    if value is not None and result != value:
        return f"result {result}, expected {value}"
    return None
