"""In-memory spans for the traced run, recorded around calls into each layer.

Spans are opened only from the benchmark's own code: around the public calls it
makes, and around a few calls the campaign worker makes on objects the benchmark
hands it (the result store, the trace store, the ``Simulator`` class the
executor instantiates).  Nothing inside ``src/`` changes.  A span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from repro.analysis.predictor_eval import evaluate_predictor
from repro.bpu.unit import BranchPredictionUnit
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.tracer import validate_trace_events
from repro.vp.hybrid import default_paper_predictor


class SpanRecorder:
    """Spans kept in memory: name, start, end, parent index and cell id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.cells: list[str | None] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        index = len(self.names)
        parent = self._open[-1] if self._open else -1
        self.names.append(name)
        self.parents.append(parent)
        self.cells.append(cell)
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._open.pop()

    def label(self, cell: str) -> None:
        """Set the cell id of the innermost open span (its children inherit it)."""
        self.cells[self._open[-1]] = cell

    def cell_of(self, index: int) -> str | None:
        """A span's cell id, inherited from the nearest labelled ancestor."""
        while index >= 0 and self.cells[index] is None:
            index = self.parents[index]
        return self.cells[index] if index >= 0 else None

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def durations_ns(self, name: str) -> list[int]:
        return [
            end - start
            for span_name, start, end in zip(self.names, self.starts, self.ends)
            if span_name == name
        ]

    def total_ns(self, name: str) -> int:
        return sum(self.durations_ns(name))

    def median_ms(self, name: str) -> float:
        durations = self.durations_ns(name)
        return statistics.median(durations) / 1e6 if durations else 0.0

    def self_ns_by_layer(self) -> dict[str, int]:
        """Each layer's self time: span time minus the time its child spans cover."""
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        layers: dict[str, int] = {}
        for index, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            own = self.ends[index] - self.starts[index] - child_ns[index]
            layers[layer] = layers.get(layer, 0) + own
        return layers

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON and validate the file."""
        origin = min(self.starts, default=0)
        pid = os.getpid()
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "perfbench", **metadata},
            }
        ]
        for index, name in enumerate(self.names):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (self.starts[index] - origin) / 1000.0,
                    "dur": (self.ends[index] - self.starts[index]) / 1000.0,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "id": index,
                        "parent": self.parents[index],
                        "cell": self.cell_of(index),
                    },
                }
            )
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        validate_trace_events(json.loads(path.read_text(encoding="utf-8")))


def traced_simulator_class(base, recorder: SpanRecorder):
    """A ``Simulator`` subclass whose construction and ``run()`` are spans."""

    class TracedSimulator(base):
        def __init__(self, *args, **kwargs):
            with recorder.span("pipeline.construct"):
                super().__init__(*args, **kwargs)

        def run(self):
            with recorder.span("pipeline.run"):
                return super().run()

    return TracedSimulator


def drive_layers(recorder: SpanRecorder, workloads_and_traces, max_uops: int) -> dict:
    """Call the vp, bpu and mem layers directly over already-captured traces.

    Returns the work counts the per-operation times are divided by.
    """
    counts = {"vp_uops": 0, "branches": 0, "mem_accesses": 0}
    for wl, trace in workloads_and_traces:
        with recorder.span("vp.evaluate_predictor", cell=wl.name):
            evaluation = evaluate_predictor(
                default_paper_predictor(), wl, max_uops=max_uops, trace=trace
            )
        counts["vp_uops"] += evaluation.eligible_uops
        stream = list(islice(trace.replay(), max_uops))
        branches = [inst for inst in stream if inst.uop.is_branch]
        memory = [inst for inst in stream if inst.addr is not None]
        unit = BranchPredictionUnit()
        with recorder.span("bpu.predict_train", cell=wl.name):
            for inst in branches:
                unit.train(inst, unit.predict(inst))
        counts["branches"] += len(branches)
        hierarchy = MemoryHierarchy()
        with recorder.span("mem.access", cell=wl.name):
            for cycle, inst in enumerate(memory):
                if inst.uop.is_store:
                    hierarchy.store(inst.addr, inst.pc, cycle)
                else:
                    hierarchy.load(inst.addr, inst.pc, cycle)
        counts["mem_accesses"] += len(memory)
    return counts
