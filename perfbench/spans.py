"""Spans around the calls into each layer of twcount, recorded from outside.

For the length of a traced pass the tracer replaces the names each module
looks up when it calls into another layer (`twcount.counting.treewidth_at_most`,
`twcount.backdoor.reduce`, `twcount.treewidth.upper_bound_heuristic`, ...)
with wrappers that record a span: name, start, end, parent span and the
request (one parse + solve) it belongs to. No file of twcount changes. Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from twcount import backdoor, counting, formula, treewidth

import reference

# (module, attribute, span name). The span name's first part is the layer.
# parse_dimacs and solve are the benchmark's own calls into twcount.
WRAPPED = (
    (formula, "parse_dimacs", "formula.parse_dimacs"),
    (counting, "solve", "counting.solve"),
    (counting, "reduce", "formula.reduce"),
    (backdoor, "reduce", "formula.reduce"),
    (counting, "build_incidence", "graphs.build_incidence"),
    (backdoor, "build_incidence", "graphs.build_incidence"),
    (counting, "treewidth_at_most", "treewidth.query"),
    (backdoor, "treewidth_at_most", "treewidth.query"),
    (treewidth, "degeneracy", "treewidth.degeneracy"),
    (treewidth, "upper_bound_heuristic", "treewidth.min_fill"),
    (treewidth, "exact_treewidth", "treewidth.exact"),
    (backdoor, "approx_backdoor", "backdoor.approx"),
    (backdoor, "find_smallest_strong_backdoor", "backdoor.exact"),
    (backdoor, "extract_witness", "backdoor.witness"),
    (backdoor, "is_strong_backdoor", "backdoor.verify"),
)

LAYERS = ("formula", "graphs", "treewidth", "backdoor", "counting")

# The per-layer metrics a traced run reports, in order.
METRICS = (
    "formula.parse_dimacs.calls", "formula.parse_dimacs.s",
    "formula.reduce.calls", "formula.reduce.s",
    "graphs.build_incidence.calls", "graphs.build_incidence.s",
    "treewidth.queries", "treewidth.queries_distinct", "treewidth.distinct_share", "treewidth.s",
    "treewidth.rung.degeneracy", "treewidth.rung.min_fill", "treewidth.rung.exact",
    "treewidth.rung.unknown", "treewidth.rung.empty",
    "treewidth.degeneracy.s", "treewidth.min_fill.s", "treewidth.exact.s",
    "treewidth.exact.vertices_max",
    "backdoor.approx.calls", "backdoor.approx.s", "backdoor.exact.calls", "backdoor.exact.s",
    "backdoor.witness.calls", "backdoor.witness.s", "backdoor.verify.calls", "backdoor.verify.s",
    "backdoor.size.sum",
    "counting.solve.s", "counting.dp.s", "counting.branches", "counting.dp.width_max",
    "counting.dp.states_bound",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.spans", "trace.untraced_pass_s", "trace.traced_pass_s", "trace.overhead_s",
)

# Rungs of treewidth_at_most, inferred from the last bound that ran inside a
# query: a query on an empty graph returns before any of them.
RUNG_OF_CHILD = (
    ("treewidth.exact", "exact"),
    ("treewidth.min_fill", "min_fill"),
    ("treewidth.degeneracy", "degeneracy"),
)


def _graph_key(g, t) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((t, sorted(g.vertices()), list(g.edges()))).encode())
    return h.hexdigest()


def _query_note(caller: str):
    def note(args, kwargs, verdict) -> dict:
        g = args[0]
        t = args[1] if len(args) > 1 else kwargs["t"]
        info = {"kind": verdict.kind, "key": _graph_key(g, t), "caller": caller}
        # On the solve path every decomposition the counting module gets back
        # from a query goes to the DP.
        if caller == "counting" and verdict.kind == treewidth.AT_MOST:
            td = verdict.decomposition
            info["width"] = td.width
            info["states"] = sum(1 << len(bag) for bag in td.bags.values())
        return info

    return note


def _exact_note(args, kwargs, result) -> dict:
    return {"vertices": args[0].num_vertices()}


NOTES = {
    (counting, "treewidth_at_most"): _query_note("counting"),
    (backdoor, "treewidth_at_most"): _query_note("backdoor"),
    (treewidth, "exact_treewidth"): _exact_note,
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, request, note or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = 0

    def _wrap(self, fn, name: str, note):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in WRAPPED:
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: {module.__name__}.{attr} not found", file=sys.stderr)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, NOTES.get((module, attr))))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, request, note in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                if note:
                    row.update(note)
                fh.write(json.dumps(row) + "\n")

    def metrics(self, untraced: list[dict], traced: list[dict]) -> dict:
        """Per-layer metrics, with units, of the traced pass whose solves are
        `traced`; `untraced` are the solves of a pass made without tracing."""
        child_s = [0.0] * len(self.spans)
        child_names: list[set] = [set() for _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
                child_names[parent].add(name)
        m: dict[str, float] = defaultdict(int)
        distinct = set()
        for i, (name, start, end, _, _, note) in enumerate(self.spans):
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += end - start
            m[f"{name.split('.')[0]}.self_s"] += end - start - child_s[i]
            if name == "treewidth.query":
                distinct.add(note["key"])
                if note["kind"] == treewidth.UNKNOWN:
                    rung = "unknown"
                else:
                    rung = next((r for c, r in RUNG_OF_CHILD if c in child_names[i]), "empty")
                m[f"treewidth.rung.{rung}"] += 1
                if "width" in note:
                    m["counting.branches"] += 1
                    m["counting.dp.width_max"] = max(m["counting.dp.width_max"], note["width"])
                    m["counting.dp.states_bound"] += note["states"]
            elif name == "treewidth.exact":
                m["treewidth.exact.vertices_max"] = max(m["treewidth.exact.vertices_max"], note["vertices"])
        m["treewidth.queries"] = m["treewidth.query.calls"]
        m["treewidth.queries_distinct"] = len(distinct)
        m["treewidth.distinct_share"] = len(distinct) / m["treewidth.queries"] if distinct else 1.0
        m["treewidth.s"] = m["treewidth.query.s"]
        m["backdoor.size.sum"] = sum(len(r["backdoor"] or ()) for r in traced)
        # The DP is reached only through the private _run_dp, so its time is
        # what solve spends outside every wrapped call.
        m["counting.dp.s"] = m["counting.self_s"]
        m["trace.spans"] = len(self.spans)
        m["trace.untraced_pass_s"], m["trace.traced_pass_s"] = (
            sum(reference.normalised(r["wall_s"], r["ref_s"]) for r in recs)
            for recs in (untraced, traced)
        )
        m["trace.overhead_s"] = m["trace.traced_pass_s"] - m["trace.untraced_pass_s"]
        return {name: {"value": m[name], "unit": unit_of(name)} for name in METRICS}


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("share"):
        return "ratio"
    return "count"
