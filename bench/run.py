"""Benchmark of the shifted_hankel CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --describe
    python3 bench/run.py --record

Run it from a checkout of the repository; it uses the sources under `src/`
and needs no build or install. A run drives the program from outside as a
closed loop with one client: the next op starts when the previous one ends.

With `--trace 0` it repeats the workload's seeded op list a fixed number
of times that depends on the workload and S alone (see REP_S), every CLI op
in a fresh `python -m shifted_hankel.cli` process and every session
repetition in a fresh child process (all spawned by bench/spawn.py, which
measures them), checks every output, and reports the end-to-end metrics
named in BENCHMARK.json; wall_s sums, over the processes of the op list,
each one's fastest wall time in the run. An op without a verified result
counts as failed and as taking OP_TIMEOUT_S. With `--trace 1` it runs the
op list once untraced and once with the layer tracer installed in each
child, and reports the per-layer metrics. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. If the
run's time budget ends before the last repetition, the run says so on
stderr; a traced run, or one with no whole repetition, then exits with
code 3 and prints no result.

`--describe` prints the design: each workload, its sizes and op count, and
every metric by name with its unit. `--record` runs every invocation and
query the workloads can generate and rewrites expected.json with the digest
of each output; do that only when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
SCRATCH = ROOT / ".bench_build" / "bench"

OP_TIMEOUT_S = 60
# No op starts after this many seconds, so that one started just before it
# still has its whole timeout and the run ends inside the 180 s it may take.
RUN_BUDGET_S = 100
MIN_REPS = 3
# Nominal seconds of one repetition of each workload, measured at the commit
# that defined the benchmark on a shared 2-core x86-64 host. A run makes
# seconds // REP_S repetitions (at least MIN_REPS) however fast the program
# is, so the fastest-of-N times of two commits are taken over the same N.
REP_S = {"numeric-grid": 6.0, "symbolic": 4.5, "staircase": 4.0, "session": 0.8}
# A run measures SETUPS set-ups, spread over its first repetitions so that
# they sample the run's span rather than one moment of it. A set-up's time
# is the fastest of SETUP_LAUNCHES launches: on ten runs this halved the
# spread of setup_s against the median of every launch.
SETUP_LAUNCHES = 3
SETUPS = 5
# the tail percentile leaves at least this many ops beyond it
TAIL_BEYOND = 10


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_kb: int
    timed_out: bool


class Launcher:
    """Runs child processes through bench/spawn.py, one at a time."""

    def __enter__(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=OP_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def run(self, argv: list, timeout: float) -> Child:
        """Run one process to its end; wall time and peak RSS are its own."""
        out_path, err_path = SCRATCH / "stdout.bin", SCRATCH / "stderr.txt"
        request = {"argv": argv, "timeout": timeout, "stdout": str(out_path), "stderr": str(err_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher ended")
        r = json.loads(reply)
        return Child(r["code"], out_path.read_bytes(), err_path.read_bytes(), r["wall_s"], r["rss_kb"], r["timed_out"])


def _cli_argv(op, trace_path=None) -> list:
    if trace_path is None:
        return [sys.executable, "-m", "shifted_hankel.cli", *op]
    return [sys.executable, str(BENCH / "child.py"), "cli", str(trace_path), *op]


class BudgetExhausted(Exception):
    """RUN_BUDGET_S ran out before an op could start."""


def _child_failure(child: Child):
    if child.timed_out:
        return "timed out"
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.decode(errors='replace').strip()[-300:]}"
    return None


@dataclass
class Rep:
    """Outcome of one pass over a workload's op list."""

    # wall time of each process the repetition ran, in op-list order
    process_s: list = field(default_factory=list)
    # session only: latency of each query
    latencies_s: list = field(default_factory=list)
    rss_kb: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    stdout_bytes: int = 0
    traces: list = field(default_factory=list)
    results: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.process_s)


class Runner:
    """Runs a workload's op list; with `expected` None, outputs are only
    checked against the independent integer checks."""

    def __init__(self, launcher: Launcher, workload: str, seed: int, expected):
        self.launcher = launcher
        self.workload = workload
        self.expected = expected
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        if workload == "session":
            self.ops = workloads.session_queries(seed)
        else:
            self.ops = workloads.cli_ops(workload, seed)

    def _check_budget(self) -> None:
        if time.perf_counter() >= self.deadline:
            raise BudgetExhausted

    def rep(self, trace: bool) -> Rep:
        if self.workload == "session":
            return self._session_rep(self.ops, trace)
        rep = Rep()
        for i, op in enumerate(self.ops):
            self._check_budget()
            trace_path = SCRATCH / f"trace-{i}.json" if trace else None
            child = self.launcher.run(_cli_argv(op, trace_path), OP_TIMEOUT_S)
            rep.attempted += 1
            rep.rss_kb = max(rep.rss_kb, child.rss_kb)
            rep.stdout_bytes += len(child.stdout)
            problem = _child_failure(child) or checks.check_cli(list(op), child.stdout, self.expected and self.expected["cli"])
            if problem:
                rep.failures.append(f"{' '.join(op)}: {problem}")
                rep.process_s.append(OP_TIMEOUT_S)
            else:
                rep.process_s.append(child.wall_s)
                if trace:
                    rep.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        return rep

    def _session_rep(self, queries, trace: bool) -> Rep:
        queries_path = SCRATCH / "queries.json"
        queries_path.write_text(json.dumps(queries), encoding="utf-8")
        trace_path = SCRATCH / "trace-session.json"
        argv = [sys.executable, str(BENCH / "child.py"), "session", str(queries_path), str(trace_path) if trace else "-"]
        self._check_budget()
        child = self.launcher.run(argv, OP_TIMEOUT_S)
        rep = Rep(rss_kb=child.rss_kb, attempted=len(queries))
        problem = _child_failure(child)
        out = {"latency_ns": [], "results": []}
        if not problem:
            try:
                out = json.loads(child.stdout)
            except ValueError:
                problem = "the session child printed no JSON"
        expected = self.expected and self.expected["session"]
        # a query past the last result the child gave has failed as well
        for i, query in enumerate(queries):
            key = workloads.query_key(query)
            if i < len(out["results"]):
                rep.results[key] = out["results"][i]
                failure = checks.check_session(query, out["results"][i], key, expected)
            else:
                failure = f"no result: {problem or 'the session child stopped early'}"
            if failure:
                rep.failures.append(f"{key}: {failure}")
                rep.latencies_s.append(OP_TIMEOUT_S)
            else:
                rep.latencies_s.append(out["latency_ns"][i] / 1e9)
        rep.process_s = [OP_TIMEOUT_S if rep.failures else child.wall_s]
        if trace and not rep.failures:
            rep.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        return rep


def _setup_s(launcher: Launcher) -> float:
    """Fastest wall time of fresh interpreters that import the CLI and build its parser."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        child = launcher.run(_cli_argv(["--help"]), OP_TIMEOUT_S)
        if _child_failure(child) or not child.stdout:
            raise RuntimeError(f"CLI does not start: {_child_failure(child)}")
        times.append(child.wall_s)
    return min(times)


def tail_share(workload: str) -> Fraction:
    """The tail percentile of a workload's latency sample.

    The sample is each op's fastest latency over the run's repetitions. In
    a session it leaves TAIL_BEYOND queries beyond it; in a CLI workload,
    a tenth of the op list, rounded down.
    """
    ops = workloads.ops_per_run(workload)
    if workload == "session":
        return Fraction(ops - TAIL_BEYOND, ops)
    return Fraction(ops - ops // 10, ops)


def _quantile(values: list, share: Fraction) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def repetitions(workload: str, seconds: int) -> int:
    return max(MIN_REPS, int(seconds // REP_S[workload]))


def measure(launcher: Launcher, workload: str, seed: int, seconds: int, trace: bool, expected) -> tuple:
    """Metrics of one run, and the list of failures."""
    runner = Runner(launcher, workload, seed, expected)
    # the first launch compiles the sources to bytecode; it is not timed
    launcher.run(_cli_argv(["--help"]), OP_TIMEOUT_S)
    if trace:
        plain, traced = runner.rep(trace=False), runner.rep(trace=True)
        reps = [plain, traced]
    else:
        setup, reps = [], []
        planned = repetitions(workload, seconds)
        setups_per_rep = math.ceil(SETUPS / planned)
        try:
            while len(reps) < planned:
                for _ in range(min(setups_per_rep, SETUPS - len(setup))):
                    setup.append(_setup_s(launcher))
                reps.append(runner.rep(trace=False))
        except BudgetExhausted:
            if not reps:
                raise
            print(f"note: the {RUN_BUDGET_S} s budget ran out after {len(reps)} of {planned}"
                  " repetitions; the metrics are taken over those", file=sys.stderr)
    failures = [msg for rep in reps for msg in rep.failures]
    attempted = sum(rep.attempted for rep in reps)
    if trace:
        metrics = tracer.layer_metrics(traced.traces)
        metrics["cli.stdout_bytes"] = traced.stdout_bytes
        metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    else:
        # Every repetition runs the same op list, so each process is timed
        # once per repetition. Noise from other tenants of the host only adds
        # time, so a process's fastest repetition is the closest to its own
        # cost; on eight runs of numeric-grid it cut the spread of wall_s to
        # a third of that of the per-process median. Session queries are
        # the same in every repetition too, and are taken the same way: over
        # ten runs on a host that slowed for minutes, the IQR of the tail of
        # every query of the run was 31 % of its median, and that of the
        # tail of the fastest times stays near 5 %.
        process_s = [min(walls) for walls in zip(*(rep.process_s for rep in reps))]
        latencies = process_s
        if workload == "session":
            latencies = [min(lats) for lats in zip(*(rep.latencies_s for rep in reps))]
        metrics = {
            "wall_s": sum(process_s),
            "peak_rss_mb": max(rep.rss_kb for rep in reps) / 1024,
            "setup_s": statistics.median(setup),
            "verified_frac": (attempted - len(failures)) / attempted,
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_tail_ms": _quantile(latencies, tail_share(workload)) * 1e3,
        }
    return metrics, attempted, failures


def load_design() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _emit(design: dict, metrics: dict, attempted: int, failures: list, trace: bool) -> None:
    listed = design["per_layer" if trace else "end_to_end"]
    out = {}
    for spec in listed:
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']:<48} {metrics[spec['name']]!r:>24} {spec['unit']}")
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": out}
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# --describe and --record


def describe(design: dict) -> None:
    print("Closed loop, one client; each CLI op in a fresh process, each session")
    print(f"repetition in a fresh child. run_seconds = {design['run_seconds']}.\n")
    whys = {w["name"]: w["why"] for w in design["workloads"]}
    for name in workloads.WORKLOADS:
        count = workloads.ops_per_run(name)
        reps = repetitions(name, design["run_seconds"])
        print(f"workload {name}: {whys.get(name, '(not in BENCHMARK.json)')}")
        tail = f"query_tail_ms is the nearest-rank p{float(tail_share(name)) * 100:.2f}"
        print(f"  ops per repetition: {count}; repetitions per untraced run: {reps}"
              f" (one per {REP_S[name]} s of run_seconds, at least {MIN_REPS})")
        if name == "session":
            print(f"  query_p50_ms is the median and {tail} of each query's fastest time over the run's"
                  f" repetitions ({count} values)")
            print("  every index below once, plus seeded repeats " + ", ".join(
                f"{kind} x{n}" for kind, n in workloads.SESSION_REPEATS.items())
                + f", each suite x{workloads.SESSION_SUITE_CALLS}; the seed also draws x and b, and the interleaving is fixed")
            print(f"  hankel_det families {[f + (':' + b if b else '') for f, b in workloads.SESSION_FAMILIES]}, "
                  f"n 0..{workloads.SESSION_N_MAX}, k 0..{workloads.SESSION_K_MAX}")
            print(f"  closed forms (family, n max) {workloads.SESSION_CLOSED} at x 0..{workloads.SESSION_X_MAX}")
            print(f"  lgv_count (model, n max, k max) {workloads.SESSION_LGV}; suites {workloads.SESSION_SUITES}")
        else:
            print(f"  query_p50_ms is the median and {tail} of each op's fastest time over the run's"
                  f" repetitions ({count} values)")
            print("  seed: picks one variant and one --format per slot, then shuffles the slots")
            for slot in workloads.CLI_WORKLOADS[name]:
                variants = " | ".join(" ".join(v) for v in slot.variants if v)
                print(f"    {' '.join(slot.base)}" + (f"  [{variants}]" if variants else "")
                      + f"  formats {'/'.join(slot.formats)}")
        print()
    print("end-to-end metrics (--trace 0):")
    for spec in design["end_to_end"]:
        print(f"  {spec['name']:<20} {spec['unit']:<8} {spec['better']} is better; bound {spec['bound']}")
    print("\nper-layer metrics (--trace 1), and what each should move:")
    for spec in design["per_layer"]:
        moves = next((v for k, v in tracer.MOVES.items() if spec["name"].startswith(k + ".") or spec["name"] == k), "")
        print(f"  {spec['name']:<48} {spec['unit']:<6} {moves}")


def record(launcher: Launcher) -> None:
    runner = Runner(launcher, "session", 0, None)
    runner.deadline = math.inf
    cli = {}
    for name, slots in workloads.CLI_WORKLOADS.items():
        for slot in slots:
            for argv in slot.argvs():
                child = launcher.run(_cli_argv(argv), OP_TIMEOUT_S)
                problem = _child_failure(child) or checks.check_cli(list(argv), child.stdout, None)
                if problem:
                    raise SystemExit(f"{' '.join(argv)}: {problem}")
                cli[" ".join(argv)] = checks.digest(child.stdout)
                print(f"{child.wall_s:7.3f}s {name}: {' '.join(argv)}", flush=True)
    rep = runner._session_rep(workloads.session_universe(), trace=False)
    if rep.failures:
        raise SystemExit("\n".join(rep.failures[:10]))
    session = {key: checks.digest(result.encode("utf-8")) for key, result in rep.results.items()}
    EXPECTED.write_text(json.dumps({"cli": cli, "session": session}, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(cli)} invocations and {len(session)} session queries")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "shifted_hankel" / "cli.py").is_file():
        print(f"error: no shifted_hankel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    design = load_design()
    if args.describe:
        describe(design)
        return 0
    if not (args.record or args.workload):
        parser.error("--workload is required")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        with Launcher() as launcher:
            if args.record:
                record(launcher)
                return 0
            expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
            seconds = args.seconds or design["run_seconds"]
            result = measure(launcher, args.workload, args.seed, seconds, bool(args.trace), expected)
        _emit(design, *result, bool(args.trace))
    except BudgetExhausted:
        print(f"error: the {RUN_BUDGET_S} s budget ran out before the run's repetitions were done", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
