"""Span tracing of the library layers, installed from outside the library.

`install()` runs inside a child process after `shifted_hankel` is imported.
It replaces each traced public function by a timing wrapper at every name
that refers to it: the defining module's global, each consumer module's
imported name, the package namespace, and values of module-level dicts
(`hankel_identities._FAMILY_FUNCS` holds direct references). `Poly` methods
are replaced on the class. Generators are timed per `next()`, so time spent
inside the iteration is attributed to the generator's layer and not to the
call that created it.

Spans are kept in memory as [name, start_ns, end_ns, parent, work, raised]
and written out by `dump()` when the child ends. The parent reads them back
with `layer_metrics()`, which derives self time as span duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer metric prefix -> the end-to-end metric and workload it should move
MOVES = {
    "exact_core.det_exact": "wall_s on numeric-grid; query_tail_ms on session",
    "exact_core.det_poly": "wall_s on symbolic",
    "exact_core.poly_mul": "wall_s on numeric-grid and symbolic",
    "exact_core.poly_subs": "wall_s on symbolic",
    "exact_core.binom_poly": "wall_s on symbolic",
    "ortho_moments.sequence_term": "query_p50_ms on session",
    "ortho_moments.term_cache": "query_p50_ms on session",
    "hankel_identities.hankel_det": "query_p50_ms on session; wall_s on numeric-grid",
    "hankel_identities.table": "query_p50_ms on session; wall_s on numeric-grid",
    "hankel_identities.H": "wall_s on symbolic and numeric-grid",
    "hankel_identities.Hb": "wall_s on symbolic and numeric-grid",
    "hankel_identities.H2": "wall_s on symbolic and numeric-grid",
    "hankel_identities.V": "wall_s on symbolic and numeric-grid",
    "hankel_identities.h": "wall_s on symbolic and numeric-grid",
    "hankel_identities.closed_form": "wall_s on symbolic and numeric-grid",
    "hankel_identities.suite": "wall_s on every CLI workload",
    "hankel_identities.cells": "wall_s on every CLI workload",
    "staircase_combinatorics": "wall_s on staircase",
    "cli": "wall_s on staircase and numeric-grid",
    "trace": "none; the cost of tracing itself",
}

CLOSED_FORMS = {
    "H": "product_poly_H",
    "Hb": "det_poly_Hb",
    "H2": "product_poly_H2",
    "V": "V_poly",
    "h": "h_poly",
}


class Tracer:
    def __init__(self, closed_forms, term_cache):
        self.names: list = []
        self.spans: list = []
        self._stack = [-1]
        # lru_cache objects whose hits and misses are read at the end
        self._closed_forms = closed_forms
        self._term_cache = term_cache

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, work_in=None, work_out=None):
        """Timing wrapper around a plain function or method."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1], work_in(*args) if work_in else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if work_out:
                rec[4] = work_out(result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Wrapper whose returned iterator times each step as a span."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def steps(iterator):
            while True:
                rec = [nid, 0, 0, stack[-1], 0, 0]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                rec[4] = 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return traced

    def dump(self, path: str) -> None:
        """Write the spans and the cache counts [hits, misses] to path."""
        infos = [fn.cache_info() for fn in self._closed_forms]
        term = self._term_cache.cache_info()
        caches = {
            "closed_form": [sum(i.hits for i in infos), sum(i.misses for i in infos)],
            "term": [term.hits, term.misses],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans, "caches": caches}, handle)


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "shifted_hankel" and not name.startswith("shifted_hankel."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def _order(rows, *_):
    return len(rows)


def _term_pairs(a, b):
    other = getattr(b, "_c", None)
    return len(a._c) * (len(other) if other is not None else int(bool(b)))


def install() -> Tracer:
    """Wrap the traced layers of every loaded shifted_hankel module."""
    from shifted_hankel import exact_core as ec
    from shifted_hankel import hankel_identities as hi
    from shifted_hankel import ortho_moments as om
    from shifted_hankel import staircase_combinatorics as sc

    closed = [getattr(hi, attr) for attr in CLOSED_FORMS.values()]
    tracer = Tracer(closed, om._sequence_term_cached)
    functions = [
        ("exact_core.det_exact", ec.det_exact, _order, None),
        ("exact_core.det_poly", ec.det_poly, _order, None),
        ("exact_core.binom_poly", ec.binom_poly, None, None),
        ("ortho_moments.sequence_term", om.sequence_term, None, None),
        ("hankel_identities.hankel_det", hi.hankel_det, None, None),
        ("staircase_combinatorics.count_pp", sc.count_pp, None, None),
        ("staircase_combinatorics.encode", sc.pp_to_dyck, None, None),
        ("staircase_combinatorics.encode", sc.pp_to_hv, None, None),
        ("staircase_combinatorics.decode", sc.dyck_to_pp, None, None),
        ("staircase_combinatorics.decode", sc.hv_to_pp, None, None),
        ("staircase_combinatorics.lgv_count", sc.lgv_count, None, None),
        ("staircase_combinatorics.brute", sc.count_nonintersecting_brute, None, None),
    ]
    for kind, fn in zip(CLOSED_FORMS, closed):
        functions.append((f"hankel_identities.{kind}", fn, None, None))
    for suite in (hi.verify_theorem, hi.theorem10_check, hi.condensation_check):
        functions.append(("hankel_identities.suite", suite, None, lambda report: len(report.cells)))
    cli = sys.modules.get("shifted_hankel.cli")
    if cli is not None:
        functions.append(("cli.run", cli.run, None, None))
    for name, fn, work_in, work_out in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn, work_in, work_out))
    _replace_everywhere(sc.enumerate_pp, tracer.wrap_generator("staircase_combinatorics.enumerate", sc.enumerate_pp))

    methods = [
        ("exact_core.poly_mul", "__mul__", _term_pairs),
        ("exact_core.poly_subs", "subs", None),
        ("exact_core.poly_subs", "shift_x", None),
    ]
    for name, attr, work_in in methods:
        original = vars(ec.Poly)[attr]
        wrapper = tracer.wrap(name, original, work_in)
        for other, value in list(vars(ec.Poly).items()):
            if value is original:
                setattr(ec.Poly, other, wrapper)

    return tracer


# ---------------------------------------------------------------------------
# parent side


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics summed over the span files of one traced repetition.

    A ratio whose layer saw no calls reads 0.
    """
    calls: dict = {}
    self_ns: dict = {}
    work: dict = {}
    raised: dict = {}
    large_det_poly = 0
    computed_cells = 0
    caches = {"closed_form": [0, 0], "term": [0, 0]}
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        child_ns = [0] * len(spans)
        det_child = [False] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
                if names[rec[0]] in ("exact_core.det_exact", "exact_core.det_poly"):
                    det_child[rec[3]] = True
        for i, (nid, start, end, _parent, amount, err) in enumerate(spans):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
            work[name] = work.get(name, 0) + amount
            raised[name] = raised.get(name, 0) + err
            if name == "exact_core.det_poly" and amount >= 7:
                large_det_poly += 1
            if name == "hankel_identities.hankel_det" and det_child[i]:
                computed_cells += 1
        for key, (hits, misses) in trace["caches"].items():
            caches[key][0] += hits
            caches[key][1] += misses

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_ns.get(name, 0) / 1e9

    m = {}
    for layer in ("det_exact", "det_poly", "poly_mul", "poly_subs", "binom_poly"):
        m[f"exact_core.{layer}.calls"] = n(f"exact_core.{layer}")
        m[f"exact_core.{layer}.self_s"] = s(f"exact_core.{layer}")
    m["exact_core.det_exact.mean_order"] = _ratio(work.get("exact_core.det_exact", 0), n("exact_core.det_exact"))
    m["exact_core.det_poly.large_calls"] = large_det_poly
    m["exact_core.poly_mul.term_pairs"] = work.get("exact_core.poly_mul", 0)
    m["ortho_moments.sequence_term.calls"] = n("ortho_moments.sequence_term")
    m["ortho_moments.sequence_term.self_s"] = s("ortho_moments.sequence_term")
    hits, misses = caches["term"]
    m["ortho_moments.term_cache.hit_ratio"] = _ratio(hits, hits + misses)
    det_calls = n("hankel_identities.hankel_det")
    m["hankel_identities.hankel_det.calls"] = det_calls
    m["hankel_identities.hankel_det.self_s"] = s("hankel_identities.hankel_det")
    m["hankel_identities.table.hit_ratio"] = 1 - computed_cells / det_calls if det_calls else 0.0
    for kind in CLOSED_FORMS:
        m[f"hankel_identities.{kind}.self_s"] = s(f"hankel_identities.{kind}")
    hits, misses = caches["closed_form"]
    m["hankel_identities.closed_form.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["hankel_identities.suite.self_s"] = s("hankel_identities.suite")
    m["hankel_identities.cells"] = work.get("hankel_identities.suite", 0)
    enum = "staircase_combinatorics.enumerate"
    m[f"{enum}.items"] = work.get(enum, 0)
    m[f"{enum}.self_s"] = s(enum)
    for layer in ("count_pp", "encode", "decode", "lgv_count", "brute"):
        m[f"staircase_combinatorics.{layer}.calls"] = n(f"staircase_combinatorics.{layer}")
        m[f"staircase_combinatorics.{layer}.self_s"] = s(f"staircase_combinatorics.{layer}")
    brute = "staircase_combinatorics.brute"
    m[f"{brute}.skipped_ratio"] = _ratio(raised.get(brute, 0), n(brute))
    m["cli.self_s"] = s("cli.run")
    return m
