"""In-memory span recorder that wraps dtplace's public functions from outside.

Each traced function is replaced, for the duration of :meth:`Tracer.installed`,
by a wrapper that records one span: its name, parent span, the benchmark
phase it ran in, and its start and end on ``time.thread_time`` (CPU time,
the clock the benchmark times ops with).  A function
is wrapped under every dtplace module that binds it, because callers look
names up in their own module: ``ddl`` calls ``ddl.evaluate``, ``exact`` calls
``exact.evaluate``, and wrapping only ``cost_model.evaluate`` would miss both.
Methods are wrapped on their class.  Private helpers (``ddl._update``,
``ddl._choose``) stay unwrapped; their time is the self time of the nearest
wrapped caller, and their public children carry their own spans.

A span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import json
import time
from collections import defaultdict

# Span name -> the (owner, attribute) pairs defining the traced functions.
# Owners are dotted paths inside the ``dtplace`` package; a class attribute
# is named ``module.Class``.  Several functions may share one span name.
TRACED = {
    "scenario.generate_random": [("scenario", "generate_random")],
    "scenario.from_document": [("scenario", "from_document")],
    "cost_model.evaluate": [("cost_model", "evaluate")],
    "cost_model.per_dt_cost_table": [("cost_model", "per_dt_cost_table")],
    "exact.solve_exact": [("exact", "solve_exact")],
    "exact.baselines": [
        ("exact", "scheme_random"),
        ("exact", "scheme_cloud_only"),
        ("exact", "scheme_average_distribution"),
    ],
    "neural.forward": [("neural.MlpModel", "forward")],
    "neural.backward": [("neural.MlpModel", "backward")],
    "neural.backward_from_output": [("neural.MlpModel", "backward_from_output")],
    "neural.adam_step": [("neural.MlpModel", "adam_step")],
    "ddl.raw_group_input": [("ddl", "raw_group_input")],
    "ddl.propose_batch": [("ddl", "propose_batch")],
    "ddl.best_of_k": [("ddl", "best_of_k")],
    "ddl.infer": [("ddl", "infer")],
    "ddl.train": [("ddl", "train")],
    "ddl.ReplayDatabase.insert": [("ddl.ReplayDatabase", "insert")],
    "ddl.ReplayDatabase.sample": [("ddl.ReplayDatabase", "sample")],
    "ddl.save_ensemble": [("ddl", "save_ensemble")],
    "ddl.load_ensemble": [("ddl", "load_ensemble")],
    "harness.ensemble_probe_costs": [("harness", "ensemble_probe_costs")],
    "harness.scheme_means": [("harness", "scheme_means")],
}

# Modules whose namespaces are searched for bindings of a traced function.
LOOKUP_MODULES = ("scenario", "cost_model", "exact", "neural", "ddl", "harness", "cli")


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"dtplace.{module}")
    return getattr(obj, cls) if cls else obj


def _bindings(function):
    """Every (namespace, attribute) in the lookup modules bound to ``function``."""
    found = []
    for name in LOOKUP_MODULES:
        module = _resolve(name)
        for attr, value in vars(module).items():
            if value is function:
                found.append((module, attr))
    return found


class Tracer:
    """Records spans of the traced functions while installed.

    ``spans`` holds ``(parent, name, phase, start, end)`` tuples indexed by
    span id; ``parent`` is -1 for a span with no traced caller.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.phase = ""

    def _wrap(self, name: str, function):
        spans, stack = self.spans, self._stack
        clock = time.thread_time

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, self.phase, start, end)

        return traced

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Wrap every traced function for the body; restore the originals after."""
        patched = []
        self.phase = phase
        try:
            for name, targets in TRACED.items():
                for owner, attr in targets:
                    holder = _resolve(owner)
                    if isinstance(holder, type):
                        sites = [(holder, attr)]
                        original = vars(holder)[attr]
                    else:
                        original = getattr(holder, attr)
                        sites = _bindings(original)
                    wrapper = self._wrap(name, original)
                    for namespace, key in sites:
                        patched.append((namespace, key, original))
                        setattr(namespace, key, wrapper)
            yield self
        finally:
            for namespace, key, original in reversed(patched):
                setattr(namespace, key, original)

    def totals(self):
        """Per ``(phase, name, parent name)``: ``[calls, self seconds]``."""
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for sid, (parent, name, phase, start, end) in enumerate(self.spans):
            parent_name = self.spans[parent][1] if parent >= 0 else ""
            entry = out[(phase, name, parent_name)]
            entry[0] += 1
            entry[1] += end - start - child[sid]
        return out

    def write(self, path, header: dict) -> None:
        """Dump the spans as CSV after a ``#``-prefixed JSON header line."""
        with open(path, "w", newline="") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "phase", "name", "start_s", "end_s"])
            for sid, (parent, name, phase, start, end) in enumerate(self.spans):
                writer.writerow([sid, parent, phase, name, repr(start), repr(end)])
