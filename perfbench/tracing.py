"""Span tracing of the library's public entry points, installed from outside.

The traced run of the benchmark wraps every function in :data:`TRACED`
wherever callers look it up — the defining module, every module that bound
it with ``from ... import``, and the class for methods — records one span
per call (name, start, end, parent span, op id) in flat arrays, and derives
each function's call count and self time (span duration minus the time its
child spans cover) from them.  :meth:`Tracer.uninstall` puts every original
object back.

Spans are recorded only inside :meth:`Tracer.op`; the benchmark runs its
correctness gate outside it, so the gate's calls into the library are
neither timed nor counted.

A wrapper's own bookkeeping runs partly outside its span, so it lands in
the parent's self time.  :meth:`Tracer.calibrate` measures that cost per
child span once, and :meth:`Tracer.summary` subtracts it from each parent.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

#: the listed functions, as paths under ``repro``, grouped by layer
TRACED: Dict[str, Tuple[str, ...]] = {
    "noc": (
        "noc.routing.mesh_minimal_paths",
        "noc.routing.PathSelector.select_least_cost",
        "noc.resources.ResourceState.copy",
        "noc.resources.ResourceState.can_reserve",
        "noc.resources.ResourceState.reserve",
    ),
    "core": (
        "core.spec.compile_spec",
        "core.engine.MappingEngine.map",
        "core.engine.MappingEngine.placement_cost",
        "core.engine.MappingEngine.evaluate_placement",
        "core.mapping.UnifiedMapper.map_requirements",
        "core.mapping.UnifiedMapper.map_with_placement",
        "core.mapping.UnifiedMapper.evaluate_group_fixed",
        "core.repair.repair_mapping",
        "core.design_flow.DesignFlow.run",
        "core.validate.validate_mapping",
    ),
    "optimize": (
        "optimize.annealing.AnnealingRefiner.refine",
        "optimize.tabu.TabuRefiner.refine",
        "optimize.screen.CandidateScreen.screen",
        "optimize.screen.CandidateScreen.cost",
    ),
    "perf": ("perf.verification.verify_mapping",),
    "io": (
        "io.serialization.mapping_result_to_dict",
        "io.serialization.mapping_result_from_dict",
        "io.serialization.use_case_set_from_dict",
        "io.serialization.mapping_fingerprint",
    ),
    "jobs": (
        "jobs.spec.job_hash",
        "jobs.spec.load_jobs",
        "jobs.spec.UseCaseSource.build",
        "jobs.runner.execute_job",
        "jobs.runner.JobResult.to_dict",
        "jobs.runner.JobResult.from_dict",
        "jobs.cache.JobCache.get",
        "jobs.cache.JobCache.put",
        "jobs.cache.JobCache.sync_store",
        "jobs.store.EngineStateStore.get_result",
        "jobs.store.EngineStateStore.load_evaluations",
        "jobs.store.EngineStateStore.ingest",
        "jobs.service.JobDirectoryService.process_file",
    ),
    "ops": (
        "ops.monitor.Monitor.poll_once",
        "ops.events.EventLog.append",
        "ops.events.apply_traffic",
    ),
}

TRACED_NAMES: Tuple[str, ...] = tuple(
    name for names in TRACED.values() for name in names
)

#: attribute every wrapper carries (its traced name), so leftovers are findable
MARK = "_perfbench_span"

#: functions whose span also records the length of one positional argument
#: (the candidate batch a screen call receives; ``self`` is position 0)
BATCH_ARGUMENT: Dict[str, int] = {"optimize.screen.CandidateScreen.screen": 1}


def _split(name: str) -> Tuple[str, Tuple[str, ...]]:
    """``"jobs.runner.JobResult.to_dict"`` -> (``"repro.jobs.runner"``, (``"JobResult"``, ``"to_dict"``))."""
    parts = name.split(".")
    return "repro." + ".".join(parts[:2]), tuple(parts[2:])


def _library_modules():
    return [
        module for module_name, module in list(sys.modules.items())
        if module is not None
        and (module_name == "repro" or module_name.startswith("repro."))
    ]


def _noop() -> None:
    return None


class Tracer:
    """Records spans of the :data:`TRACED` functions while installed and active."""

    def __init__(self, names: Sequence[str] = TRACED_NAMES) -> None:
        self.names: List[str] = list(names)
        self._name_ids = {name: index for index, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_items = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.active = False
        self.op_id = -1
        #: wrapper cost per child span that falls in the parent's self time
        self.child_cost_s = 0.0
        #: (owner, attribute, original object) per patched lookup site
        self._patched: List[Tuple[object, str, object]] = []
        #: wrapper -> original, for sites that bound a wrapper after install
        self._originals: Dict[int, Tuple[object, object]] = {}

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every traced function at every lookup site."""
        for name in self.names:
            module_name, path = _split(name)
            module = importlib.import_module(module_name)
            if len(path) == 1:
                self._wrap_function(name, module, path[0])
            else:
                owner = getattr(module, path[0])
                self._wrap_method(name, owner, path[1])

    def _wrap_function(self, name: str, module, attribute: str) -> None:
        original = getattr(module, attribute)
        wrapper = self._wrapper(name, original)
        self._originals[id(wrapper)] = (wrapper, original)
        for site in _library_modules():
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapper)
                    self._patched.append((site, key, original))

    def _wrap_method(self, name: str, owner, attribute: str) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrapper(name, raw.__func__))
        else:
            replacement = self._wrapper(name, raw)
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Restore every original object, including sites bound after install."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        for site in _library_modules():
            for key, value in list(vars(site).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(site, key, entry[1])
        self._originals.clear()
        self.active = False

    def _wrapper(self, name: str, function):
        name_id = self._name_ids[name]
        batch = BATCH_ARGUMENT.get(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            index = tracer._enter(name_id, -1 if batch is None else len(args[batch]))
            try:
                return function(*args, **kwargs)
            finally:
                tracer.span_end[index] = perf_counter()
                tracer._stack.pop()

        setattr(traced, MARK, name)
        return traced

    def _enter(self, name_id: int, items: int) -> int:
        index = len(self.span_start)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_op.append(self.op_id)
        self.span_items.append(items)
        self.span_end.append(0.0)
        stack.append(index)
        self.span_start.append(perf_counter())
        return index

    @staticmethod
    def leftovers() -> List[str]:
        """Lookup sites that still hold a span wrapper (empty after uninstall)."""
        found = []
        for module in _library_modules():
            for key, value in list(vars(module).items()):
                if hasattr(value, MARK):
                    found.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    for attribute, raw in vars(value).items():
                        if hasattr(getattr(raw, "__func__", raw), MARK):
                            found.append(f"{module.__name__}.{key}.{attribute}")
        return found

    # ------------------------------------------------------------------ #
    # recording control
    # ------------------------------------------------------------------ #
    @contextmanager
    def op(self, op_id: int):
        """Record the spans of one operation under ``op_id``."""
        self.op_id = op_id
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> float:
        """Measure the per-child wrapper cost a parent's self time absorbs.

        A traced parent calls a traced no-op ``calls`` times; its self time
        minus the same loop calling the bare no-op, per call, is the cost.
        Sets and returns :attr:`child_cost_s` (median of ``repeats``).
        """
        samples = []
        for _ in range(repeats):
            probe = Tracer(names=("parent", "child"))
            child = probe._wrapper("child", _noop)

            def body(function=child):
                for _ in range(calls):
                    function()

            parent = probe._wrapper("parent", body)
            with probe.op(0):
                parent()
            start = perf_counter()
            body(_noop)
            bare = perf_counter() - start
            parent_self = probe.summary()["parent"][1]
            samples.append(max(0.0, (parent_self - bare) / calls))
        self.child_cost_s = statistics.median(samples)
        return self.child_cost_s

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span.

        Self time is the span's duration minus its children's durations and
        minus :attr:`child_cost_s` per child, floored at zero.
        """
        count = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        durations = [ends[index] - starts[index] for index in range(count)]
        child_time = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child_time[parent] += durations[index] + self.child_cost_s
        calls = [0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for index in range(count):
            name_id = names[index]
            calls[name_id] += 1
            self_time[name_id] += max(0.0, durations[index] - child_time[index])
        return {
            name: (calls[name_id], self_time[name_id])
            for name_id, name in enumerate(self.names)
        }

    def batch_items(self, name: str, parent: str) -> Tuple[int, int]:
        """(spans, summed batch lengths) of ``name`` directly under ``parent``."""
        name_id, parent_id = self._name_ids[name], self._name_ids[parent]
        spans = items = 0
        for index in range(len(self.span_start)):
            if self.span_name[index] != name_id:
                continue
            up = self.span_parent[index]
            if up >= 0 and self.span_name[up] == parent_id:
                spans += 1
                items += max(0, self.span_items[index])
        return spans, items
