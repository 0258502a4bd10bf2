"""Spans and counters at evrelo's layer boundaries, installed from outside.

``Tracer.install`` replaces every module-level binding of each traced
function (the defining module and every module that imported it by name)
with a wrapper, and ``Tracer.uninstall`` puts the originals back.  Nothing
under ``src/`` is edited; the private boundaries ``_construct``,
``_simulate_insertion`` and ``_feasible_route_masks`` are wrapped the same
way.  Cheap lookups (``Instance.distance``, ``Instance.request``,
``_simulate_insertion``, ``select_next``) are only counted: a span per call
would cost more than the call.

A span records its name, start, end, parent span and solve id in flat
arrays; a span's self time is its duration minus the durations of its
direct children (calls are strictly nested, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = ("model", "feasibility", "insertion", "greedy", "exact", "io",
           "generator", "reporting", "cli")

# (module, attribute, span name).  A boundary whose function is gone from
# its module is reported in ``Tracer.missing`` instead of failing the run.
SPANS = (
    ("model", "assemble_solution", "model.assemble_solution"),
    ("feasibility", "replay_route", "feasibility.replay_route"),
    ("feasibility", "validate_route", "feasibility.validate_route"),
    ("feasibility", "validate_solution", "feasibility.validate_solution"),
    ("insertion", "best_insertion", "insertion.best_insertion"),
    ("insertion", "apply_insertion", "insertion.apply_insertion"),
    ("insertion", "materialize_first_pair", "insertion.materialize_first_pair"),
    ("insertion", "critical_factor", "insertion.critical_factor"),
    ("insertion", "preprocess", "insertion.preprocess"),
    ("insertion", "compatible_partners", "insertion.compatible_partners"),
    ("insertion", "_construct", "insertion.construct"),
    ("insertion", "run_rh", "insertion.run_rh"),
    ("exact", "solve_exact", "exact.solve_exact"),
    ("exact", "_feasible_route_masks", "exact.enumerate"),
    ("greedy", "run_greedy", "greedy.run_greedy"),
    ("io", "load_instance", "io.load_instance"),
    ("io", "save_instance", "io.save_instance"),
    ("io", "save_solution", "io.save_solution"),
    ("generator", "make_benchmark", "generator.make_benchmark"),
    ("generator", "small_instances", "generator.small_instances"),
    ("reporting", "run_algorithm", "reporting.run_algorithm"),
    ("reporting", "write_comparison_csv", "reporting.write_comparison_csv"),
)

# (module, attribute, counter name): call counts without a span.
COUNTS = (
    ("insertion", "_simulate_insertion", "insertion.simulate_insertion.calls"),
    ("greedy", "select_next", "greedy.select_next.calls"),
)

# Methods of model.Instance that are counted.
METHOD_COUNTS = (
    ("distance", "model.distance.calls"),
    ("request", "model.request.calls"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, package="evrelo"):
        self.modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        self.package = importlib.import_module(package)
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_solve = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.solve_id = -1
        self._next_solve = 0
        self.counts = {}
        self.missing = []
        self._patches = []
        self._seen_constructions = {}
        self._rh_span = self._name_id("insertion.run_rh")

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_solve.append(self.solve_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        nid = self._name_id(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = [0]
        self.counts[name] = cell

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Hooks named after the span they extend (dots become underscores).

    def _before_reporting_run_algorithm(self, args, kwargs):
        self.solve_id = self._next_solve
        self._next_solve += 1

    def _after_reporting_run_algorithm(self, args, kwargs, result, state):
        self.solve_id = -1

    def _after_feasibility_validate_route(self, args, kwargs, result, state):
        if result.ok:
            self.add("feasibility.validate_route.ok")

    def _before_insertion_best_insertion(self, args, kwargs):
        route = args[0] if args else kwargs["route"]
        self.add("insertion.best_insertion.gaps", len(route.visits) // 2 + 1)

    def _before_insertion_run_rh(self, args, kwargs):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        iterations = config.iterations if config is not None else 10000
        self.add("insertion.run_rh.iterations", iterations)

    def _repeat(self, prefix, routes):
        """Count an RH iteration and whether its solve already produced ``routes``."""
        if not self._stack or self.span_name[self._stack[-1]] != self._rh_span:
            return
        key = (prefix, tuple((r.start_time, r.request_ids) for r in routes))
        seen = self._seen_constructions.setdefault(self.solve_id, set())
        self.add(prefix + ".iterations")
        if key in seen:
            self.add(prefix + ".repeats")
        else:
            seen.add(key)

    def _after_insertion_construct(self, args, kwargs, result, state):
        routes, _rejected = result
        self._repeat("insertion.construct", routes)

    def _after_model_assemble_solution(self, args, kwargs, result, state):
        self._repeat("model.assemble_solution", result.routes)

    def _before_exact_solve_exact(self, args, kwargs):
        limits = args[2] if len(args) > 2 else kwargs.get("limits")
        return limits, (limits.nodes if limits is not None else 0)

    def _after_exact_solve_exact(self, args, kwargs, result, state):
        limits, nodes = state
        if limits is not None:
            self.add("exact.nodes", limits.nodes - nodes)

    def _after_exact_enumerate(self, args, kwargs, result, state):
        masks, _complete = result
        self.add("exact.masks", len(masks))

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for module in (*self.modules.values(), self.package):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        mods = self.modules
        for module, attr, name in SPANS:
            original = getattr(mods[module], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._rebind(original, self._span_wrapper(name, original))
        for module, attr, name in COUNTS:
            original = getattr(mods[module], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._rebind(original, self._count_wrapper(name, original))
        instance_cls = mods["model"].Instance
        for attr, name in METHOD_COUNTS:
            self._set(instance_cls, attr, self._count_wrapper(name, getattr(instance_cls, attr)))
        # The exact solver's own validate_route binding, counted separately
        # on top of the feasibility span.
        if hasattr(mods["exact"], "validate_route"):
            self._set(mods["exact"], "validate_route",
                      self._count_wrapper("exact.validate_route.calls",
                                          mods["exact"].validate_route))
        else:
            self.missing.append("exact.validate_route.calls")
        compare = getattr(mods["cli"], "compare", None)
        if compare is not None and getattr(compare, "callback", None) is not None:
            self._set(compare, "callback", self._span_wrapper("cli.compare", compare.callback))
        else:
            self.missing.append("cli.compare")

    def uninstall(self):
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def count(self, name):
        value = self.counts.get(name, 0)
        return value[0] if isinstance(value, list) else value

    def span_totals(self):
        """{span name: (calls, total seconds, self seconds)}."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        return out

    def write(self, path):
        """Write every recorded span (compressed numpy archive)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            solve=np.frombuffer(self.span_solve, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )


def snapshot(package="evrelo"):
    """Identity of every traceable binding, to prove ``uninstall`` restored them."""
    mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
    mods.append(importlib.import_module(package))
    state = {(m.__name__, attr): id(v) for m in mods for attr, v in vars(m).items()
             if callable(v)}
    instance_cls = importlib.import_module(f"{package}.model").Instance
    for attr, _ in METHOD_COUNTS:
        state[("Instance", attr)] = id(getattr(instance_cls, attr))
    compare = getattr(importlib.import_module(f"{package}.cli"), "compare", None)
    if compare is not None:
        state[("cli.compare", "callback")] = id(compare.callback)
    return state
