"""Spans around the calls into each menurank layer, recorded from outside.

``Tracer.install`` replaces functions where their callers look them up (a
module global or a class attribute) with wrappers that record one span per
call: request id, layer name, parent span, start and end.  Spans live in
flat arrays until ``write`` stores them; self time is a span's duration
minus the durations of its direct children.  Outside a request (set-up,
output checks) the wrappers call straight through and record nothing.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import menurank.aggregation
import menurank.cli
import menurank.distances
import menurank.ilp
from menurank.ilp import IlpModel
from menurank.permutations import Permutation

# (owner, attribute, layer name); several lookups may share one layer name
WRAP_POINTS = (
    (menurank.cli, "main", "cli.main"),
    (menurank.cli, "load_profile", "profiles.load_profile"),
    (menurank.cli, "make_params", "weights.make_params"),
    (menurank.aggregation, "make_params", "weights.make_params"),
    (menurank.cli, "aggregate_exact", "aggregation.aggregate_exact"),
    (menurank.cli, "aggregate_myopic", "aggregation.aggregate_myopic"),
    (menurank.cli, "aggregate_footrule", "aggregation.aggregate_footrule"),
    (menurank.aggregation, "_position_terms", "aggregation._position_terms"),
    (menurank.aggregation, "footrule_position_costs", "aggregation.footrule_position_costs"),
    (menurank.aggregation, "min_cost_assignment", "assignment.min_cost_assignment"),
    (menurank.aggregation, "profile_cost", "distances.profile_cost"),
    (menurank.cli, "distance", "distances.distance"),
    (menurank.distances, "distance", "distances.distance"),
    (menurank.cli, "footrule_weighted", "distances.footrule_weighted"),
    (Permutation, "__init__", "permutations.Permutation"),
    (menurank.cli, "build_ilp", "ilp.build_ilp"),
    (menurank.ilp, "downset_mass", "weights.downset_mass"),
    (IlpModel, "to_lp_text", "ilp.IlpModel.to_lp_text"),
)
TERM = "aggregation.term"  # the closure _position_terms returns
LAYERS = tuple(dict.fromkeys([name for _, _, name in WRAP_POINTS] + [TERM]))
COUNTERS = ("aggregation.minimizers", "ilp.lp_bytes", "ilp.rows", "ilp.vars")


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.request = -1  # id of the request being served; -1 records nothing
        self.counters = Counter({name: 0 for name in COUNTERS})
        self._columns = (array("i"), array("i"), array("i"), array("d"), array("d"))
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, post=None):
        layer = self.names.index(name)
        requests, layers, parents, starts, ends = self._columns
        stack = self._stack

        def traced(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            span = len(starts)
            requests.append(self.request)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            return post(result) if post else result

        return traced

    def _post(self, name: str):
        counters = self.counters
        if name == "aggregation._position_terms":
            return lambda result: (self.wrap(TERM, result[0]), result[1])
        if name == "aggregation.aggregate_exact":
            def minimizers(result):
                counters["aggregation.minimizers"] += len(result.minimizers)
                return result
            return minimizers
        if name == "ilp.build_ilp":
            def sizes(model):
                counters["ilp.rows"] += model.constraint_count()
                counters["ilp.vars"] += model.variable_count()
                return model
            return sizes
        if name == "ilp.IlpModel.to_lp_text":
            def size(text):
                counters["ilp.lp_bytes"] += len(text.encode())
                return text
            return size
        return None

    def install(self) -> None:
        for owner, attr, name in WRAP_POINTS:
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, self._post(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds) summed over every recorded span."""
        _, layers, parents, starts, ends = self._columns
        child = [0.0] * len(starts)
        for span, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[span] - starts[span]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for span, layer in enumerate(layers):
            calls[layer] += 1
            own[layer] += ends[span] - starts[span] - child[span]
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path, header: dict) -> None:
        """``path`` gets a JSON header; ``path.spans`` the span columns, in order."""
        spans = path.with_suffix(".spans")
        kinds = [column.typecode for column in self._columns]
        meta = dict(header, layers=self.names, span_count=len(self._columns[3]),
                    span_file=spans.name,
                    columns=list(zip(("request", "layer", "parent", "start_s", "end_s"), kinds)))
        with open(spans, "wb") as handle:
            for column in self._columns:
                column.tofile(handle)
        path.write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
