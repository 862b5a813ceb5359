"""Spans around diraclab's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function in every diraclab module
that holds it, so calls made through an imported name (``templates`` calling
``find_rooted_absorber``) are caught as well as direct ones. Spans stay in
memory; ``write`` dumps them once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _route_name(args, kwargs):
    route = kwargs.get("route", args[3] if len(args) > 3 else "pruned")
    return f"thresholds.sweep.{route}"


def _pm_counts(res, args, kwargs):
    proof = 0 if res.status == "perfect" else res.nodes_explored
    return {"nodes": res.nodes_explored, "proof_nodes": proof}


PIPELINE_COUNTERS = ("retries", "failed_blocks", "leftover")


def _pipeline_counts(rep, args, kwargs):
    return {key: rep.counters.get(key, 0) for key in PIPELINE_COUNTERS}


# (module, function, span name or a function of the call's arguments,
#  counters taken from the return value)
TARGETS = (
    ("hypercore", "min_d_degree", "hypercore.min_d_degree", None),
    ("hypercore", "k_density", "hypercore.k_density", None),
    ("hypercore", "berge_girth_of", "hypercore.berge_girth_of", None),
    ("hypercore", "induced", "hypercore.induced", None),
    ("matchpower", "find_perfect_matching", "matchpower.find_perfect_matching", _pm_counts),
    ("matchpower", "blockwise_almost_perfect", "matchpower.blockwise_almost_perfect", None),
    ("matchpower", "match_into_flexible", "matchpower.match_into_flexible", None),
    ("matchpower", "verify_matching", "matchpower.verify_matching", None),
    ("thresholds", "exact_dirac_threshold", _route_name, None),
    ("thresholds", "space_barrier", "thresholds.barrier_build", None),
    ("thresholds", "parity_barrier", "thresholds.barrier_build", None),
    ("absorbing", "find_rooted_absorber", "absorbing.find_rooted_absorber",
     lambda A, a, kw: {"order0": int(A.order == 0)}),
    ("absorbing", "find_sparse_r_absorber", "absorbing.find_sparse_r_absorber", None),
    ("absorbing", "pattern_for", "absorbing.pattern_for", None),
    ("absorbing", "assemble_contractible", "absorbing.assemble_contract", None),
    ("absorbing", "contract_absorber", "absorbing.assemble_contract", None),
    ("templates", "build_absorbing_structure", "templates.build_absorbing_structure", None),
    ("templates", "structure_matching_after_removal",
     "templates.structure_matching_after_removal", None),
    ("templates", "build_resilient_template", "templates.build_resilient_template", None),
    ("templates", "verify_resilient_template", "templates.verify_resilient_template",
     lambda rep, a, kw: {"removals": rep.checked}),
    ("pipeline", "choose_rich_set", "pipeline.choose_rich_set",
     lambda rich, a, kw: {"trials": rich.trials_used}),
    ("pipeline", "dirac_perfect_matching", "pipeline.dirac_perfect_matching", _pipeline_counts),
    ("lab", "sample_hk", "lab.sample_hk", None),
    ("lab", "degrade_to_degree", "lab.degrade_to_degree",
     lambda res, a, kw: {"deleted": len(res.deleted)}),
)



def metric_source(metric):
    """The span name and field a per-layer metric sums over: field "calls"
    counts spans, "self_s" sums self time, anything else sums that counter.
    A metric is named "<span name>.<field>", except the pipeline report's
    counters, which are named "pipeline.<counter>"."""
    span_name, field = metric.rsplit(".", 1)
    if span_name == "pipeline" and field in PIPELINE_COUNTERS:
        return "pipeline.dirac_perfect_matching", field
    return span_name, field


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        # operation label -> factor to the reference speed, for self times
        self.scale: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(out, args, kwargs)
            return out

        return traced

    def install(self):
        """Swap every target for its traced wrapper in all diraclab modules."""
        modules = [m for key, m in sys.modules.items() if key.startswith("diraclab.")]
        for mod_name, fn_name, name, counter in TARGETS:
            orig = getattr(sys.modules[f"diraclab.{mod_name}"], fn_name)
            wrapped = self._wrap(orig, name, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapped)
                    self._restore.append((mod, fn_name, orig))

    def uninstall(self):
        for mod, fn_name, orig in reversed(self._restore):
            setattr(mod, fn_name, orig)
        self._restore.clear()

    def layer_totals(self, first, metrics):
        """The named per-layer metrics over the spans recorded from index
        ``first`` on.

        A span's self time is its duration minus the durations of its direct
        children, which cannot overlap in a single thread, scaled to the
        reference speed by its operation's factor.
        """
        spans = self.spans
        child = defaultdict(float)
        for span in spans[first:]:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(spans[first:], start=first):
            t = totals[span.name]
            t["calls"] += 1
            t["self_s"] += (span.end - span.start - child[i]) * self.scale[span.op]
            for key, value in (span.counts or {}).items():
                t[key] += value
        return {
            metric: totals.get(span_name, {}).get(field, 0.0)
            for metric, (span_name, field) in zip(metrics, map(metric_source, metrics))
        }

    def write(self, path):
        """Dump every span as one JSON line."""
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "counts": s.counts,
                }) + "\n")
