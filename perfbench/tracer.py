"""Spans and counters around eqcol's public functions, for the traced run.

The tracer patches each hooked function in the module that defines it and
in every eqcol module that imported it by name, and patches methods on
their class.  Two kinds of hook exist:

* span hooks wrap module-level layer functions and methods.  Every call
  records a span (id, name, start, end, parent span, request id) in
  memory; the spans are written out when the sample ends, and a layer's
  self time is its span's duration minus the time its child spans cover.
* op hooks wrap `CycNum` arithmetic.  There are millions of these calls
  per run, so they keep a call count and a self time (minus nested op
  calls) instead of spans.  Op time stays inside the span that made the
  call, so `linalg.rank.s` includes the scalar arithmetic of the rank.

A hook whose target no longer exists is listed in `missing` and its
metrics are left out of the result instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Hook:
    name: str      # span or op name, e.g. "linalg.rank"
    module: str    # defining module
    target: str    # "function" or "Class.method"
    op: bool = False


HOOKS = (
    # cyclotomic: scalar arithmetic on the class (op hooks)
    Hook("cyclotomic.mul", "eqcol.cyclotomic", "CycNum.__mul__", op=True),
    Hook("cyclotomic.mul", "eqcol.cyclotomic", "CycNum.__rmul__", op=True),
    # __sub__ and __rsub__ delegate to __add__, so each counts once here
    Hook("cyclotomic.add", "eqcol.cyclotomic", "CycNum.__add__", op=True),
    Hook("cyclotomic.add", "eqcol.cyclotomic", "CycNum.__radd__", op=True),
    Hook("cyclotomic.to_conductor", "eqcol.cyclotomic",
         "CycNum.to_conductor", op=True),
    Hook("cyclotomic.inverse", "eqcol.cyclotomic", "CycNum.inverse", op=True),
    Hook("cyclotomic.reduced", "eqcol.cyclotomic", "CycNum.reduced", op=True),
    Hook("cyclotomic.eq", "eqcol.cyclotomic", "CycNum.__eq__", op=True),
    # linalg
    Hook("linalg.rank", "eqcol.linalg", "CycMatrix.rank"),
    Hook("linalg.solve", "eqcol.linalg", "CycMatrix.solve"),
    Hook("linalg.det", "eqcol.linalg", "CycMatrix.det"),
    Hook("linalg.rref_rows", "eqcol.linalg", "rref_rows"),
    # groups and reps
    Hook("groups.generate_group", "eqcol.groups", "generate_group"),
    Hook("reps.irrep_from_images", "eqcol.reps", "irrep_from_images"),
    Hook("reps.verify_irreps", "eqcol.reps", "verify_irreps"),
    Hook("reps.molien_dimension", "eqcol.reps", "molien_dimension"),
    # homspaces
    Hook("homspaces.hom_space", "eqcol.homspaces", "hom_space"),
    Hook("homspaces.build", "eqcol.homspaces", "HomSpace.__init__"),
    Hook("homspaces.compose_hom", "eqcol.homspaces", "compose_hom"),
    # cohomology
    Hook("cohomology.ext_dim_equivariant", "eqcol.cohomology",
         "ext_dim_equivariant"),
    Hook("cohomology.euler_pairing", "eqcol.cohomology", "euler_pairing"),
    # complexes
    Hook("complexes.hom_complex", "eqcol.complexes", "HomComplexData.__init__"),
    Hook("complexes.delta", "eqcol.complexes", "HomComplexData.delta"),
    Hook("complexes.pair_ext_dims", "eqcol.complexes", "pair_ext_dims"),
    Hook("complexes.right_mutation", "eqcol.complexes", "right_mutation"),
    Hook("complexes.cohomology_basis", "eqcol.complexes", "cohomology_basis"),
    # excol
    Hook("excol.beilinson_collection", "eqcol.excol", "beilinson_collection"),
    Hook("excol.cascade_mutation", "eqcol.excol", "cascade_mutation"),
    Hook("excol.dsing_collection", "eqcol.excol", "dsing_collection"),
    Hook("excol.check_exceptional", "eqcol.excol", "check_exceptional"),
    Hook("excol.check_strong", "eqcol.excol", "check_strong"),
    Hook("excol.quiver", "eqcol.excol", "quiver"),
    Hook("excol.replay_gram", "eqcol.excol", "replay_gram"),
    # scenario and report
    Hook("scenario.build_setup", "eqcol.scenario", "build_setup"),
    Hook("report.emit_report_json", "eqcol.report", "emit_report_json"),
)

HOOK_NAMES = tuple(dict.fromkeys(h.name for h in HOOKS))


def _conductor(value) -> int:
    # ints and Fractions are rational, conductor 1
    return getattr(value, "conductor", 1)


def _observe_mul(counters: dict, args, result) -> None:
    if _conductor(args[0]) == 1 and _conductor(args[1]) == 1:
        counters["cyclotomic.mul.rational"] += 1


def _observe_rank(counters: dict, args, result) -> None:
    matrix = args[0]
    counters["linalg.rank.cells"] += matrix.nrows * matrix.ncols
    counters["linalg.rank.max_rows"] = max(counters["linalg.rank.max_rows"],
                                           matrix.nrows)


def _observe_group(counters: dict, args, result) -> None:
    counters["groups.order"] += result.order


def _observe_homspace(counters: dict, args, result) -> None:
    counters["homspaces.ambient_dim.sum"] += args[0].ambient_dim


def _observe_hom_complex(counters: dict, args, result) -> None:
    counters["complexes.hom_complex.max_dim"] = max(
        counters["complexes.hom_complex.max_dim"],
        max(args[0].dims.values(), default=0))


# hook name -> (observer called after each call, the counters it keeps)
OBSERVERS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "cyclotomic.mul": (_observe_mul, ("cyclotomic.mul.rational",)),
    "linalg.rank": (_observe_rank,
                    ("linalg.rank.cells", "linalg.rank.max_rows")),
    "groups.generate_group": (_observe_group, ("groups.order",)),
    "homspaces.build": (_observe_homspace, ("homspaces.ambient_dim.sum",)),
    "complexes.hom_complex": (_observe_hom_complex,
                              ("complexes.hom_complex.max_dim",)),
}

# The per-layer metrics, in the order BENCHMARK.json lists them.  Each
# `.s` is self time in seconds; every other metric is a count or a ratio.
PER_LAYER = (
    "cyclotomic.mul.calls", "cyclotomic.mul.rational_share",
    "cyclotomic.add.calls", "cyclotomic.to_conductor.calls",
    "cyclotomic.inverse.calls", "cyclotomic.reduced.calls",
    "cyclotomic.reduced.s", "cyclotomic.eq.calls", "cyclotomic.eq.s",
    "linalg.rank.calls", "linalg.rank.s", "linalg.rank.cells",
    "linalg.rank.max_rows", "linalg.solve.calls", "linalg.solve.s",
    "linalg.det.calls", "linalg.det.s", "linalg.rref_rows.calls",
    "linalg.rref_rows.s",
    "groups.generate_group.s", "groups.order",
    "reps.irrep_from_images.s", "reps.verify_irreps.s",
    "reps.molien_dimension.s",
    "homspaces.hom_space.calls", "homspaces.builds", "homspaces.hit_ratio",
    "homspaces.build.s", "homspaces.ambient_dim.sum",
    "homspaces.compose_hom.calls", "homspaces.compose_hom.s",
    "cohomology.ext_dim_equivariant.calls", "cohomology.ext_dim_equivariant.s",
    "cohomology.euler_pairing.calls", "cohomology.euler_pairing.s",
    "complexes.hom_complex.builds", "complexes.hom_complex.max_dim",
    "complexes.delta.calls", "complexes.delta.s",
    "complexes.pair_ext_dims.calls", "complexes.pair_ext_dims.s",
    "complexes.right_mutation.calls", "complexes.right_mutation.s",
    "complexes.cohomology_basis.calls", "complexes.cohomology_basis.s",
    "excol.beilinson_collection.s", "excol.cascade_mutation.s",
    "excol.dsing_collection.s", "excol.check_exceptional.s",
    "excol.check_strong.s", "excol.quiver.s", "excol.replay_gram.s",
    "excol.mutation_steps",
    "scenario.build_setup.s", "report.emit_report_json.s",
)


class Tracer:
    """Holds one sample's spans, op statistics and counters in memory."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self.hooks = hooks
        self.spans: list[tuple] = []      # (id, name, start, end, parent, request)
        self.request = 0
        self.op_calls: dict[str, int] = {}
        self.op_self: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._span_stack = [0]            # ids of open spans; 0 is the root
        self._op_stack = [[0.0]]          # child-time accumulators

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for hook in self.hooks:
            target = self._resolve(hook)
            if target is None:
                self.missing.append(f"{hook.module}.{hook.target}")
                continue
            owner, attr, original = target
            wrapper = (self._op_wrapper(hook.name, original) if hook.op
                       else self._span_wrapper(hook.name, original))
            self._patch(owner, attr, original, wrapper)
            self.installed.add(hook.name)
            for key in OBSERVERS.get(hook.name, (None, ()))[1]:
                self.counters[key] = 0

    @staticmethod
    def _resolve(hook: Hook):
        """(owner, attribute, function) of the hook's target, or None."""
        try:
            owner = importlib.import_module(hook.module)
        except ImportError:
            return None
        *path, attr = hook.target.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        return None if original is None else (owner, attr, original)

    @staticmethod
    def _patch(owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        # the defining module and every eqcol module that imported the name
        for name, module in list(sys.modules.items()):
            if name != "eqcol" and not name.startswith("eqcol."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    # -- wrappers ------------------------------------------------------

    def _op_wrapper(self, name: str, fn):
        self.op_calls.setdefault(name, 0)
        self.op_self.setdefault(name, 0.0)
        calls, self_time, stack = self.op_calls, self.op_self, self._op_stack
        observe = OBSERVERS.get(name, (None,))[0]
        counters = self.counters

        def wrapper(*args):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                self_time[name] += elapsed - frame[0]
            if observe is not None:
                observe(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, name: str, fn):
        spans, stack, ids = self.spans, self._span_stack, self._ids
        observe = OBSERVERS.get(name, (None,))[0]
        counters = self.counters

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              self.request))
            if observe is not None:
                observe(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------

    def span_stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, computed from the spans."""
        child_time: dict[int, float] = {}
        for span_id, _, start, end, parent, _ in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        stats = {name: (0, 0.0) for name in HOOK_NAMES
                 if name in self.installed and name not in self.op_calls}
        for span_id, name, start, end, _, _ in self.spans:
            calls, self_s = stats[name]
            stats[name] = (calls + 1,
                           self_s + (end - start) - child_time.get(span_id, 0.0))
        return stats

    def hook_calls(self) -> dict[str, int]:
        """Calls per installed hook name, for the self-test."""
        calls = {name: n for name, (n, _) in self.span_stats().items()}
        calls.update(self.op_calls)
        return calls

    def values(self, mutation_steps: int) -> dict[str, float]:
        """Every PER_LAYER metric whose hooks are installed."""
        raw: dict[str, float] = dict(self.counters)
        for name, (calls, self_s) in self.span_stats().items():
            raw[f"{name}.calls"] = calls
            raw[f"{name}.s"] = self_s
        for name, calls in self.op_calls.items():
            raw[f"{name}.calls"] = calls
            raw[f"{name}.s"] = self.op_self[name]
        if "cyclotomic.mul" in self.installed:
            raw["cyclotomic.mul.rational_share"] = (
                raw["cyclotomic.mul.rational"] / raw["cyclotomic.mul.calls"]
                if raw["cyclotomic.mul.calls"] else 0.0)
        if "homspaces.build" in self.installed:
            raw["homspaces.builds"] = raw["homspaces.build.calls"]
            if "homspaces.hom_space" in self.installed:
                calls = raw["homspaces.hom_space.calls"]
                raw["homspaces.hit_ratio"] = (
                    1 - raw["homspaces.builds"] / calls if calls else 0.0)
        if "complexes.hom_complex" in self.installed:
            raw["complexes.hom_complex.builds"] = \
                raw["complexes.hom_complex.calls"]
        raw["excol.mutation_steps"] = mutation_steps
        return {name: raw[name] for name in PER_LAYER if name in raw}

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, request in self.spans:
                out.write(json.dumps({"id": span_id, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent,
                                      "request": request}) + "\n")
