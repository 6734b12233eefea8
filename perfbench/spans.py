"""Span recording for the traced benchmark run.

Every public module-level function of the ksumclique modules is wrapped from
outside the package: the wrapper is set on the defining module and on every
module (and registry dict) that bound the original by name, so calls between
modules are spanned too. Spans are kept in memory as flat arrays and turned
into per-function self time at the end; generator functions get one span per
resumption, so their self time is the time spent producing items.

Work counters are read from what the functions already return
(`SolverReport.stats`, `ReducedCollection.params`, result sizes), never from
inside the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable

MODULES = (
    "instances",
    "sumfree",
    "reduce_sum_to_clique",
    "reduce_clique_to_sum",
    "modprime",
    "fieldapps",
    "solvers",
    "cli",
)

ROOT_SPAN = "bench.op"


class Tracer:
    """In-memory span store plus per-function call, error and work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.name, self.parent, self.start, self.end)

    def dump(self, stem: str, summary: dict[str, Any]) -> None:
        """Write the summary as `<stem>.json` and every span to `<stem>.spans`:
        the name ids (int32), parent indices (int32, -1 for a root), start
        and end times (float64, seconds), one array after the other."""
        summary = dict(summary, names=self.names, spans=len(self.start),
                       span_arrays=["name:int32", "parent:int32", "start:float64", "end:float64"])
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        with open(stem + ".spans", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(
    names: list[str],
    name: Iterable[int],
    parent: Iterable[int],
    start: Iterable[float],
    end: Iterable[float],
) -> dict[str, float]:
    """Per span name: total duration minus the part covered by direct child
    spans. Spans are single-threaded and properly nested, so the children's
    durations never overlap each other and lie inside the parent."""
    name, parent, start, end = list(name), list(parent), list(start), list(end)
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, float] = defaultdict(float)
    for i, nid in enumerate(name):
        out[names[nid]] += end[i] - start[i] - child[i]
    return dict(out)


# ---------------------------------------------------------------------------
# work counters read from arguments and results
# ---------------------------------------------------------------------------

Hook = Callable[[Tracer, str, tuple, dict, Any], None]


def counts(*keys: str) -> Callable[[Hook], Hook]:
    """Declare the counter keys a hook adds under its function's name."""

    def mark(hook: Hook) -> Hook:
        hook.keys = keys  # type: ignore[attr-defined]
        return hook

    return mark


def _stats(*keys: str) -> Hook:
    @counts(*keys)
    def hook(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
        for key in keys:
            tr.add(f"{q}.{key}", result.stats.get(key, 0))

    return hook


@counts("pairs_checked")
def _pairs_checked(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    s = result.stats
    tr.add(f"{q}.pairs_checked", s.get("pairs_checked", 0) + s.get("low_pairs", 0) + s.get("core_pairs_checked", 0))


@counts("edges_out")
def _edges_out(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.edges_out", result.m)


@counts("carries_total", "carries_kept")
def _carry_keep(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.carries_total", result.params.get("s", 0))
    tr.add(f"{q}.carries_kept", len(result.items))


@counts("g_nk", "out_n", "out_m")
def _pipeline(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.g_nk", result.g_nk)
    tr.add(f"{q}.out_n", result.instance.n)
    tr.add(f"{q}.out_m", result.instance.m)


@counts("out_numbers", "max_bits")
def _packed(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.out_numbers", result.n)
    tr.maximum(f"{q}.max_bits", max((abs(x).bit_length() for x in result.numbers), default=0))


@counts("bytes")
def _serialized(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.bytes", len(result))


@counts("bytes")
def _parsed(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.bytes", len(args[0]))


@counts("leaves", "trials_failed")
def _experiment(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.leaves", result["stats"]["total_leaf_instances"])
    tr.add(f"{q}.trials_failed", len(result["failures"]))


@counts("items")
def _items(tr: Tracer, q: str, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add(f"{q}.items", len(result.items))


RESULT_HOOKS: dict[str, Hook] = {
    "solvers.solve_kclique_bruteforce": _stats("nodes_expanded"),
    "solvers.solve_ksum_mim": _stats("table_size", "probes"),
    "solvers.solve_ksum_bruteforce": _stats("candidates"),
    "solvers.solve_vectorsum_bruteforce": _stats("candidates"),
    "solvers.detect_triangle": _pairs_checked,
    "solvers.solve_nw_triangle": _stats("alphas", "instances_generated"),
    "reduce_sum_to_clique.build_alpha_instance": _edges_out,
    "reduce_sum_to_clique.nodeweight_to_edgeweight": _carry_keep,
    "reduce_sum_to_clique.smallksum_to_kclique": _pipeline,
    "reduce_clique_to_sum.kclique_to_ksum": _packed,
    "instances.serialize_instance": _serialized,
    "instances.parse_instance": _parsed,
    "cli.run_equivalence_experiment": _experiment,
    "modprime.ksum_mod_reduce": _items,
}


@counts("heads", "yielded")
def _alpha_heads(tr: Tracer, q: str, args: tuple, kwargs: dict, yielded: int) -> None:
    """present_alpha_tuples tries support^(C(k,2)-1) heads per call."""
    g, k = args[0], args[1]
    support = len({w for _, _, w in g.edge_weights or ()})
    tr.add(f"{q}.heads", support ** (k * (k - 1) // 2 - 1) if support else 0)
    tr.add(f"{q}.yielded", yielded)


GENERATOR_HOOKS: dict[str, Callable[[Tracer, str, tuple, dict, int], None]] = {
    "reduce_sum_to_clique.present_alpha_tuples": _alpha_heads,
}

# every `module.function.key` counter some hook adds
COUNTERS = frozenset(
    f"{qual}.{key}" for qual, hook in (*RESULT_HOOKS.items(), *GENERATOR_HOOKS.items()) for key in hook.keys
)

# ratio metric -> (numerator, denominator) counter keys of the same function
RATIOS = {
    "alpha_keep_ratio": ("yielded", "heads"),
    "carry_keep_ratio": ("carries_kept", "carries_total"),
}


# ---------------------------------------------------------------------------
# wrapper installation
# ---------------------------------------------------------------------------

def _wrap(tr: Tracer, qual: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    nid = tr.name_id(qual)
    if inspect.isgeneratorfunction(fn):
        gen_hook = GENERATOR_HOOKS.get(qual)

        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            tr.calls[qual] += 1
            it = fn(*args, **kwargs)
            yielded = 0
            try:
                while True:
                    idx = tr.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    except BaseException:
                        tr.errors[qual] += 1
                        raise
                    finally:
                        tr.close(idx)
                    yielded += 1
                    yield item
            finally:
                if gen_hook is not None:
                    gen_hook(tr, qual, args, kwargs, yielded)

        return gen_wrapper

    hook = RESULT_HOOKS.get(qual)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tr.calls[qual] += 1
        idx = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tr.errors[qual] += 1
            raise
        finally:
            tr.close(idx)
        if hook is not None:
            hook(tr, qual, args, kwargs, result)
        return result

    return wrapper


def wrapper_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a plain call, measured on a no-op
    (the fastest of a few repeats, so that a busy machine does not inflate
    it). Multiplied by the number of spans it estimates tracing overhead."""

    def noop() -> None:
        return None

    wrapped = _wrap(Tracer(), "calibration.noop", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def public_functions(package_name: str) -> dict[Callable[..., Any], str]:
    """Each public function defined in one of MODULES, mapped to its
    `module.function` name."""
    out = {}
    for short in MODULES:
        mod = sys.modules[f"{package_name}.{short}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = f"{short}.{attr}"
    return out


class Installation:
    """Wrappers set on the package; `remove` restores every patched binding."""

    def __init__(self, tr: Tracer, package_name: str) -> None:
        originals = public_functions(package_name)
        wrappers = {fn: _wrap(tr, qual, fn) for fn, qual in originals.items()}
        self.wrapped = sorted(originals.values())
        self._undo: list[tuple[Any, str, Any]] = []
        namespaces = [sys.modules[package_name]] + [sys.modules[f"{package_name}.{m}"] for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    # registries such as cli.SOLVERS hold functions by value
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._undo.append((obj, key, val))
                            obj[key] = wrappers[val]

    def remove(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()
