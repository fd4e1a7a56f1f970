"""Child process of the benchmark.

    python3 bench/child.py cli TRACE_PATH ARGV...
        run one CLI invocation in-process with the layer tracer installed,
        then write its spans to TRACE_PATH
    python3 bench/child.py session QUERIES_PATH TRACE_PATH
        run a session query stream (a JSON list) and print, as one JSON
        object, each query's latency in ns and its result as text; with a
        TRACE_PATH other than "-", trace the layers and write the spans there

Untraced CLI ops do not come here: they run as `python -m shifted_hankel.cli`.
"""

import json
import sys
import time
from fractions import Fraction

import tracer as layer_tracer


def _cli(trace_path: str, argv: list) -> int:
    from shifted_hankel import cli

    tracer = layer_tracer.install()
    code = cli.run(argv)
    sys.stdout.flush()
    tracer.dump(trace_path)
    return code


def _render(value) -> str:
    return value.render() if hasattr(value, "render") else str(value)


def _session(queries_path: str, trace_path: str) -> int:
    with open(queries_path, encoding="utf-8") as handle:
        queries = json.load(handle)
    import shifted_hankel as sh

    tracer = layer_tracer.install() if trace_path != "-" else None
    clock = time.perf_counter_ns
    latencies, results = [], []
    for query in queries:
        kind = query[0]
        start = clock()
        if kind == "hankel":
            _, family, b, n, k = query
            seq = sh.MomentSequence(family, b=Fraction(b)) if b else sh.MomentSequence(family)
            value = sh.hankel_det(seq, n, k)
        elif kind == "closed":
            _, which, n, x, b = query
            member = sh.PolyFamily(which).member(n)
            value = member.subs(x=Fraction(x), b=Fraction(b) if b else None).constant()
        elif kind == "lgv":
            _, model, n, k = query
            ends = sh.dyck_endpoints(n, k) if model == "dyck" else sh.hv_endpoints(n, k)
            value = sh.lgv_count(*ends, model)
        elif kind == "verify":
            _, tag, n_max, k_max, b_values = query
            report = sh.verify_theorem(
                tag,
                n_max=n_max,
                k_max=None if k_max < 0 else k_max,
                b_values=[Fraction(b) for b in b_values.split(",")] if b_values else None,
            )
            value = f"{report.passed}:{len(report.cells)}"
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        latencies.append(clock() - start)
        results.append(_render(value))
    if tracer is not None:
        tracer.dump(trace_path)
    json.dump({"latency_ns": latencies, "results": results}, sys.stdout)
    return 0


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return _cli(sys.argv[2], sys.argv[3:])
    if mode == "session":
        return _session(sys.argv[2], sys.argv[3])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
