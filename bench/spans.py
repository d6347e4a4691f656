"""Spans around steerkit's public functions, installed from outside the package.

`Tracer.install()` wraps every public function of the seven steerkit modules
(of `cli`, only `main`: its other functions are stages of one command) and
scipy's `linprog`, and patches each module namespace that holds one of
them. A span records id, parent, name, start, end and op id; spans stay in
memory and `layer_metrics` derives inclusive times, self times and counts
from them at the end. Spans started on a thread with no open span of its
own (the CLI sweep pool) take the main thread's innermost open span as
parent.

A metric whose hook target no longer exists is reported as missing, never
as zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "families", "criteria", "measurements", "core", "gaussian", "oracle")
CLI_HOOKS = ("main",)
LINPROG = "scipy.linprog"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.main_stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.lock = threading.Lock()
        self.hooks: set[str] = set()

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self.main_stack if is_main else []
            self.local.stack = stack
        return stack

    def wrap(self, name: str, fn, after=None):
        main_stack = self.main_stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self.ids)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.op))
            if after is not None:
                with self.lock:
                    after(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        targets: dict[int, tuple[str, object]] = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"steerkit.{short}")
            except ImportError:
                continue
            self.hooks.add(f"module:{short}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                if short == "cli" and attr not in CLI_HOOKS:
                    continue
                targets[id(value)] = (f"{short}.{attr}", value)
        import scipy.optimize

        targets[id(scipy.optimize.linprog)] = (LINPROG, scipy.optimize.linprog)
        self.hooks |= {name for name, _ in targets.values()}
        wrappers = {key: self.wrap(name, fn, AFTER.get(name)) for key, (name, fn) in targets.items()}
        holders = [m for n, m in sys.modules.items() if n == "steerkit" or n.startswith("steerkit.")]
        holders.append(scipy.optimize)
        for module in holders:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def write(self, path: Path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
                    "names": names,
                    "spans": [(s[0], s[1], index[s[2]], s[3], s[4], s[5]) for s in self.spans],
                },
                fh,
            )


def _after_linprog(counts, args, kwargs, result) -> None:
    a_eq = kwargs.get("A_eq", args[3] if len(args) > 3 else None)
    if a_eq is not None:
        counts["lp_rows"] += a_eq.shape[0]
        counts["lp_cols"] += a_eq.shape[1]
        counts["lp_shape_seen"] += 1
    counts["highs_nit"] += int(getattr(result, "nit", 0))


def _after_lhs_feasible(counts, args, kwargs, result) -> None:
    counts["infeasible"] += not result.feasible


def _after_certify(counts, args, kwargs, result) -> None:
    phen = kwargs.get("phen", args[0] if args else None)
    strategies = 1
    for measurement in phen.strategy.alice:
        strategies *= measurement.n_outcomes
    counts["strategies"] += strategies
    counts["certified"] += bool(result.certified)


AFTER = {
    LINPROG: _after_linprog,
    "oracle.lhs_feasible": _after_lhs_feasible,
    "oracle.certify_steering": _after_certify,
}


def _self_time(t0: float, t1: float, children: list[tuple[float, float]]) -> float:
    """Span duration minus the union of its children's intervals within it."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(children):
        lo, hi = max(lo, t0), min(hi, t1)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (t1 - t0) - covered


def span_stats(spans: list[tuple]) -> dict:
    """Per-name inclusive seconds, self seconds and calls, plus bisection evals."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    inclusive, self_s, calls, module_self = Counter(), Counter(), Counter(), Counter()
    bisect_evals = 0
    for sid, parent, name, t0, t1, _ in spans:
        calls[name] += 1
        own = _self_time(t0, t1, children.get(sid, ()))
        self_s[name] += own
        module_self[name.split(".")[0]] += own
        ancestors = set()
        p = parent
        while p in by_id:
            ancestors.add(by_id[p][2])
            p = by_id[p][1]
        if name not in ancestors:
            inclusive[name] += t1 - t0
        if name == "criteria.evaluate" and "families.boundary_bisect" in ancestors:
            bisect_evals += 1
    return {
        "inclusive": inclusive,
        "self": self_s,
        "calls": calls,
        "module_self": module_self,
        "bisect_evals": bisect_evals,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _timed(name):
    return (f"{name}.s", "s", "lower", (name,), lambda st, c: st["inclusive"][name])


def _calls(name):
    return (f"{name}.calls", "count", "lower", (name,), lambda st, c: st["calls"][name])


def _self(name):
    return (f"{name}.self_s", "s", "lower", (name,), lambda st, c: st["self"][name])


# (metric, unit, better, hooks it needs, value(stats, counts))
LAYER_METRICS = [
    _timed("criteria.default_spin_plan"),
    _calls("criteria.default_spin_plan"),
    ("criteria.plans_per_eval", "ratio", "lower", ("criteria.default_spin_plan", "criteria.evaluate"),
     lambda st, c: _ratio(st["calls"]["criteria.default_spin_plan"], st["calls"]["criteria.evaluate"])),
    _timed("measurements.observable_to_measurement"),
    _calls("measurements.observable_to_measurement"),
    _timed("measurements.measure_joint"),
    _calls("measurements.measure_joint"),
    _timed("measurements.collective_variance"),
    _timed("core.tensor_product"),
    _calls("core.tensor_product"),
    _timed("core.expectation"),
    _timed("families.make_state"),
    _calls("families.make_state"),
    _timed("core.bipartite_from_matrix"),
    _calls("criteria.evaluate"),
    _self("criteria.evaluate"),
    ("families.boundary_bisect.evals", "count", "lower", ("families.boundary_bisect", "criteria.evaluate"),
     lambda st, c: st["bisect_evals"]),
    _self("families.boundary_bisect"),
    _timed("gaussian.symmetric_two_mode"),
    _timed("gaussian.conditional_min_variance"),
    _timed("gaussian.linear_combination_variance"),
    _self("cli.main"),
    _timed("oracle.hidden_state_grid"),
    _timed("oracle.lhs_feasible"),
    ("oracle.assembly.s", "s", "lower", ("oracle.lhs_feasible",),
     lambda st, c: st["self"]["oracle.lhs_feasible"]),
    _timed("oracle.functional_from_dual"),
    _timed("oracle.phenomenon_from_state"),
    ("oracle.highs.s", "s", "lower", (LINPROG,), lambda st, c: st["inclusive"][LINPROG]),
    ("oracle.highs.nit", "count", "lower", (LINPROG,), lambda st, c: c["highs_nit"]),
    ("oracle.lp_rows", "count", "lower", (LINPROG,), lambda st, c: c["lp_rows"]),
    ("oracle.lp_cols", "count", "lower", (LINPROG,), lambda st, c: c["lp_cols"]),
    _timed("oracle.certify_steering"),
    ("oracle.strategies", "count", "lower", ("oracle.certify_steering",), lambda st, c: c["strategies"]),
    ("oracle.certified_per_infeasible", "ratio", "higher", ("oracle.certify_steering", "oracle.lhs_feasible"),
     lambda st, c: _ratio(c["certified"], c["infeasible"])),
]
# Self time of each module as a whole: where the time goes when no single
# function is named. scipy's solver is its own entry, outside `oracle`.
LAYER_METRICS += [
    (f"{m}.self_s", "s", "lower", (f"module:{m}",), lambda st, c, m=m: st["module_self"][m])
    for m in MODULES
]

# Counts that repeat exactly across traced runs of one seed.
DETERMINISTIC = [
    "criteria.default_spin_plan.calls", "measurements.observable_to_measurement.calls",
    "measurements.measure_joint.calls", "core.tensor_product.calls", "families.make_state.calls",
    "criteria.evaluate.calls", "families.boundary_bisect.evals", "oracle.highs.nit",
    "oracle.strategies", "oracle.lp_rows", "oracle.lp_cols",
]


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans, and the names of missing ones."""
    stats = span_stats(tracer.spans)
    metrics, missing = {}, []
    for name, unit, _, hooks, value in LAYER_METRICS:
        if any(h not in tracer.hooks for h in hooks):
            missing.append(name)
            continue
        metrics[name] = {"value": float(value(stats, tracer.counts)), "unit": unit}
    if "oracle.lp_rows" in metrics and tracer.counts["lp_shape_seen"] < stats["calls"][LINPROG]:
        for name in ("oracle.lp_rows", "oracle.lp_cols"):
            missing.append(name)
            del metrics[name]
    return metrics, missing
