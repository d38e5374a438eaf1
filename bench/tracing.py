"""Span recording around the calls into negmono's layers.

Each traced function is replaced, for the duration of a traced run, by a
wrapper installed where the calling module binds it (``analyze`` is
wrapped in ``negmono.harness``, ``optimize_roof`` in ``negmono.measures``
and in the benchmark's own ``workloads``), so the package source is
untouched.  Spans are kept in memory as ``[name, start, end, parent,
note]`` rows and turned into per-layer metrics only after the run.
"""

from __future__ import annotations

import json
import statistics
from math import prod
from time import perf_counter

# layer metric name -> (calling module, attribute)
FUNCTION_LAYERS = {
    "states.haar_random_pure": ("negmono.harness", "haar_random_pure"),
    "states.density": ("negmono.harness", "density"),
    "states.partial_trace": ("negmono.harness", "partial_trace"),
    "measures.two_qubit_tangle_and_toa": ("negmono.harness", "two_qubit_tangle_and_toa"),
    "measures.pure_scren": ("negmono.harness", "pure_scren"),
    "measures.scren": ("negmono.harness", "scren"),
    "measures.screnoa": ("negmono.harness", "screnoa"),
    "relations.evaluate_relation": ("negmono.harness", "evaluate_relation"),
    "harness.analyze": ("negmono.harness", "analyze"),
    "harness.run_campaign": ("workloads", "run_campaign"),
    "harness.campaign_report_json": ("workloads", "campaign_report_json"),
}
# roof calls are named roof.<cut>.<dir> from their arguments
ROOF_BINDINGS = (("negmono.measures", "optimize_roof"), ("workloads", "optimize_roof"))
ROOF_LAYERS = tuple(f"roof.{c}.{d}" for c in ("2x2", "2xd", "dxd") for d in ("min", "max"))

# metric name -> (unit, better): everything a traced run emits.  Counts
# and self times are per input state, so runs that fit a different
# number of states into their window stay comparable.
PER_LAYER = {}
for _layer in FUNCTION_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("1/state", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s/state", "lower")
PER_LAYER["measures.scren.roof_calls"] = ("1/state", "lower")
PER_LAYER["measures.screnoa.roof_calls"] = ("1/state", "lower")
PER_LAYER["relations.evaluated_ratio"] = ("ratio", "higher")
PER_LAYER["harness.analyze.p50_s"] = ("s", "lower")
PER_LAYER["harness.analyze.p99_s"] = ("s", "lower")
PER_LAYER["harness.campaign_report_json.bytes"] = ("B/call", "lower")
for _layer in ROOF_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("1/state", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s/state", "lower")
    PER_LAYER[f"{_layer}.p50_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.max_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.spread_max"] = ("negativity", "lower")
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")
PER_LAYER["trace.unattributed_s"] = ("s/state", "lower")


def roof_span_name(rho, cut, config=None) -> str:
    d_a = prod(rho.dims[i] for i in cut.a_side)
    d_b = prod(rho.dims[i] for i in cut.b_side)
    kind = "2x2" if d_a == d_b == 2 else "2xd" if 2 in (d_a, d_b) else "dxd"
    direction = "min" if config is None else config.direction.value
    return f"roof.{kind}.{direction}"


def _note(name: str, result):
    """The per-span number a layer's ratio or quality metric needs."""
    if name.startswith("roof."):
        return result.restart_spread
    if name == "relations.evaluate_relation":
        return 1 if result.condition_holds else 0
    if name == "harness.campaign_report_json":
        return len(result)
    return None


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = name_of(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = _note(name, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch every traced binding; ``modules`` maps module names to modules."""
        for layer, (mod, attr) in FUNCTION_LAYERS.items():
            self._patch(modules[mod], attr, lambda *a, _n=layer, **k: _n)
        for mod, attr in ROOF_BINDINGS:
            self._patch(modules[mod], attr, roof_span_name)

    def _patch(self, module, attr, name_of) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name_of))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path, env: dict) -> None:
        """JSON lines: the environment and column names, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "columns": ["name", "start", "end", "parent",
                                                         "workload", "note"]}) + "\n")
            for n, s, e, p, note in self.spans:
                fh.write(json.dumps([n, s, e, p, self.workload, note]) + "\n")

    def metrics(self, states: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics over ``states`` input states whose timed work
        took ``traced_s`` with tracing on and ``untraced_s`` with it off."""
        child_s = [0.0] * len(self.spans)
        roof_children = [0] * len(self.spans)
        root_s = 0.0
        for n, s, e, p, _ in self.spans:
            if p < 0:
                root_s += e - s
            else:
                child_s[p] += e - s
                roof_children[p] += n.startswith("roof.")
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        durations: dict[str, list] = {}
        notes: dict[str, list] = {}
        roof_calls: dict[str, int] = {}
        for idx, (n, s, e, _, note) in enumerate(self.spans):
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + (e - s) - child_s[idx]
            roof_calls[n] = roof_calls.get(n, 0) + roof_children[idx]
            durations.setdefault(n, []).append(e - s)
            if note is not None:
                notes.setdefault(n, []).append(note)

        out = {}
        for n in list(FUNCTION_LAYERS) + list(ROOF_LAYERS):
            out[f"{n}.calls"] = calls.get(n, 0) / states
            out[f"{n}.self_s"] = self_s.get(n, 0.0) / states
        for n in ("measures.scren", "measures.screnoa"):
            out[f"{n}.roof_calls"] = roof_calls.get(n, 0) / states
        out["relations.evaluated_ratio"] = _mean(notes.get("relations.evaluate_relation"))
        out["harness.analyze.p50_s"] = _quantile(durations.get("harness.analyze"), 50)
        out["harness.analyze.p99_s"] = _quantile(durations.get("harness.analyze"), 99)
        out["harness.campaign_report_json.bytes"] = _mean(notes.get("harness.campaign_report_json"))
        for n in ROOF_LAYERS:
            out[f"{n}.p50_s"] = _quantile(durations.get(n), 50)
            out[f"{n}.max_s"] = max(durations.get(n, [0.0]))
            out[f"{n}.spread_max"] = max(notes.get(n, [0.0]))
        out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        out["trace.unattributed_s"] = (traced_s - root_s) / states
        return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _quantile(values, pct: int) -> float:
    """The pct-th percentile (inclusive method); 0 when nothing was timed."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
