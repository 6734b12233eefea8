"""Seeded end-to-end benchmark of the ksumclique chains.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Each
workload is a single-threaded closed loop: one caller walks a seeded pool of
inputs built at set-up, issuing the next call only when the previous one has
returned, and checks every output against the set-up oracle. It repeats
whole passes over the pool while another pass fits in --seconds (at least
one), so every run measures the same mix of inputs.

--trace 0 prints the end-to-end metrics, in reference seconds: each
operation's wall time divided by the machine's speed at that moment, as a
fixed calibration kernel timed before every operation measures it (see
speed_factors). --trace 1 makes one untraced and one
traced pass over the pool, prints the per-layer metrics (self time, calls,
work counters and errors per wrapped function) and writes every span with
the exact counters to perfbench/out/. The last line of stdout is always one
JSON object; metric names and units come from BENCHMARK.json. `--workload
all` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "ksumclique"
SETUP_REPEATS = 5

# Machine-speed normalisation. On a shared host the CPU's speed drifts by up
# to about 30% for seconds or minutes at a time (other tenants' load on the
# same cores), and every wall-clock figure of a run drifts with it. Before
# each operation the timed loop runs a fixed pure-interpreter kernel that
# allocates no containers (so the program's heap, the garbage collector and
# the caches the program fills do not touch it) and times it. The local speed
# factor of an operation is the median of the kernel times just before it,
# just after it and one before that (CAL_WINDOW = 1), over CAL_REF_S, raised
# to CAL_SENSITIVITY; the operation's times are divided by it. The end-to-end
# times are thus reference seconds: what the wall clock would read on a
# machine where the kernel takes exactly CAL_REF_S. The kernel runs between
# the program's calls and outside every timed region.
#
# Both constants come from logs of the four workloads with the kernel timed
# before every operation (150-300 s each, one small pool cycled). The speed
# changes within a tenth of a second, so a wide window tracks it worse: over
# 4.6 passes of 512 sum_to_clique operations, the spread of one operation's
# time (IQR/median) was 0.20 raw, 0.10 with this window and 0.15 with ten
# operations either side. The program slows more than the kernel when the
# machine slows: the sd of the log of per-pass totals was, for exponents
# 1.0 / 1.2 / 1.5, 0.042 / 0.031 / 0.020 on sum_to_clique, 0.080 / 0.058 /
# 0.031 on nw_triangle, 0.027 / 0.025 / 0.026 on clique_to_sum and 0.043 /
# 0.030 / 0.035 on experiment (raw: 0.108, 0.198, 0.059, 0.140).
CAL_ITERATIONS = 8000
CAL_REF_S = 0.001
CAL_WINDOW = 1
CAL_SENSITIVITY = 1.4

sys.path.insert(0, str(HERE))

import chains  # noqa: E402
import spans  # noqa: E402


def load_program() -> SimpleNamespace:
    """Import the package from ./src afresh, dropping any earlier import so
    that every set-up repetition pays the import again."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in spans.MODULES}
    return SimpleNamespace(
        package=pkg,
        instances=mods["instances"],
        solvers=mods["solvers"],
        fwd=mods["reduce_sum_to_clique"],
        bwd=mods["reduce_clique_to_sum"],
        cli=mods["cli"],
    )


def calibration_kernel(iterations: int = CAL_ITERATIONS) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
        if acc & 1:
            acc ^= i
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def speed_factor(kernel_s: list[float]) -> float:
    """How much slower than the reference the machine ran the program while
    these kernel times were taken: their median over CAL_REF_S, to the power
    CAL_SENSITIVITY. A median, so one kernel run hit by an interrupt does not
    count."""
    return (statistics.median(kernel_s) / CAL_REF_S) ** CAL_SENSITIVITY


def speed_factors(kernel_s: list[float], window: int = CAL_WINDOW) -> list[float]:
    """Per operation, the speed factor of the kernel times within `window`
    operations of it."""
    return [speed_factor(kernel_s[max(0, i - window):i + window + 1]) for i in range(len(kernel_s))]


def timed_set_up(w: chains.Workload, seed: int, set_up_fn: Callable) -> tuple[float, Any]:
    """One set-up repetition in reference seconds: its wall time divided by
    the speed factor of three kernel runs just before it and three just
    after it."""
    before = [time_kernel() for _ in range(3)]
    secs, *built = set_up_fn(w, seed)
    after = [time_kernel() for _ in range(3)]
    return secs / speed_factor(before + after), built


def set_up(w: chains.Workload, seed: int) -> tuple[float, SimpleNamespace, list[chains.Case]]:
    """Wall time of import + pool generation + oracle verdicts, and what they
    built."""
    gc.collect()
    t0 = time.perf_counter()
    ks = load_program()
    cases = w.pool(seed, ks)
    return time.perf_counter() - t0, ks, cases


def set_up_aside(w: chains.Workload, seed: int) -> tuple[float, str]:
    """One more set-up repetition while the loop's program stays loaded: its
    modules are put back in sys.modules afterwards, so later imports inside
    the program still see the classes the pool was built with. Returns the
    time and the digest of the pool it built."""
    saved = {m: mod for m, mod in sys.modules.items() if m == PACKAGE or m.startswith(PACKAGE + ".")}
    try:
        seconds, _, cases = set_up(w, seed)
        return seconds, chains.pool_digest(cases)
    finally:
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        sys.modules.update(saved)


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = self.verified = self.failed = self.wrong = 0
        self.errors: list[str] = []

    def add(self, latency: float, out: chains.Outcome) -> None:
        self.latencies.append(latency)
        self.attempted += out.attempted
        self.verified += out.verified
        self.failed += out.failed
        self.wrong += out.wrong
        if out.error is not None:
            self.errors.append(out.error)


def one_pass(w: chains.Workload, cases: list[chains.Case], ks: SimpleNamespace, tally: Tally,
             tracer: spans.Tracer | None = None) -> None:
    root = tracer.name_id(spans.ROOT_SPAN) if tracer is not None else -1
    for case in cases:
        if tracer is not None:
            idx = tracer.open(root)
        latency, out = chains.run_case(w, case, ks, time.perf_counter)
        if tracer is not None:
            tracer.close(idx)
        tally.add(latency, out)


def tail_percentile(samples_per_pass: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in
    one pass over the pool (the shortest run the benchmark makes)."""
    return max(0, math.floor(100 * (1 - 10 / samples_per_pass)))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_specs(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]


def emit(values: dict[str, float], section: str, extra_lines: dict[str, str], tally: Tally, correct: bool) -> None:
    metrics = {}
    for spec in metric_specs(section):
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"{name} = {values[name]!r} {spec['unit']}{extra_lines.get(name, '')}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))


def report_failures(tally: Tally) -> None:
    print(f"failures: {tally.failed} of {tally.attempted} (failed_frac {tally.failed / max(tally.attempted, 1)!r})")
    print(f"wrong answers = {tally.wrong}")
    for line in sorted(set(tally.errors))[:20]:
        print(f"  failure: {line}")


def run_timed(w: chains.Workload, seed: int, seconds: float) -> int:
    """The timed closed loop. Before each operation it times the calibration
    kernel; afterwards every time is divided by the speed factor around it.
    `setup_s` is the median of SETUP_REPEATS set-ups, each normalised by
    the kernel runs around it: the first builds the pool the loop uses, the
    others are spread evenly through the first pass (their time is left out
    of the loop's), so that one slow spell of the machine cannot cover them
    all."""
    time_kernel()  # warm-up, untimed
    setup_first, (ks, cases) = timed_set_up(w, seed, set_up)
    setup_times, digests = [setup_first], {chains.pool_digest(cases)}
    setup_at = {j * len(cases) // SETUP_REPEATS for j in range(1, SETUP_REPEATS)}

    chains.run_case(w, cases[0], ks, time.perf_counter)  # warm-up, untimed
    tally = Tally()
    kernel_s: list[float] = []
    busy_s: list[float] = []  # per operation: its call and its check
    passes = 0
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i, case in enumerate(cases):
            if passes == 0 and i in setup_at:
                secs, (digest,) = timed_set_up(w, seed, set_up_aside)
                setup_times.append(secs)
                digests.add(digest)
            kernel_s.append(time_kernel())
            t0 = time.perf_counter()
            latency, out = chains.run_case(w, case, ks, time.perf_counter)
            busy_s.append(time.perf_counter() - t0)
            tally.add(latency, out)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - p0) > seconds:
            break

    factors = speed_factors(kernel_s)
    loop_s = sum(b / f for b, f in zip(busy_s, factors))
    lat = sorted(t / f for t, f in zip(tally.latencies, factors))
    pct = tail_percentile(len(cases))
    values = {
        "instances_per_s": tally.verified / loop_s,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * nearest_rank(lat, pct),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = sorted(tally.latencies)
    print(f"workload {w.name} seed {seed}: {passes} pass(es) over {len(cases)} operations, "
          f"loop {loop_s:.3f} reference s ({sum(busy_s):.3f} s wall)")
    quart = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    print(f"speed factor ((kernel time / {CAL_REF_S} s) ** {CAL_SENSITIVITY}): median {quart[1]:.3f}, "
          f"quartiles {quart[0]:.3f}-{quart[2]:.3f}; wall-clock p50 {1000 * statistics.median(wall):.3f} ms, p{pct} {1000 * nearest_rank(wall, pct):.3f} ms")
    print("set-up repetitions (reference s): " + " ".join(f"{t:.4f}" for t in setup_times))
    report_failures(tally)
    extra = {
        "latency_tail_ms": f" (p{pct} of {len(lat)} samples, {len(lat) - math.ceil(pct / 100 * len(lat))} beyond)",
        "instances_per_s": f" ({tally.verified} verified {w.unit}s)",
        "setup_s": f" (median of {len(setup_times)})",
    }
    emit(values, "end_to_end", extra, tally, correct=len(digests) == 1 and tally.wrong == 0)
    return 0


def layer_value(name: str, tr: spans.Tracer, selfs: dict[str, float], wrapped: list[str], extra: dict[str, float]) -> float:
    """Resolve one per-layer metric name against the traced pass."""
    if name in extra:
        return extra[name]
    parts = name.split(".")
    if len(parts) == 2 and parts[0] in spans.MODULES:
        mod, what = parts
        fns = [q for q in wrapped if q.startswith(mod + ".")]
        if what == "self_s":
            return sum(selfs.get(q, 0.0) for q in fns)
        if what == "errors":
            return float(sum(tr.errors.get(q, 0) for q in fns))
    if len(parts) == 3:
        fn, what = f"{parts[0]}.{parts[1]}", parts[2]
        if fn not in wrapped:
            raise KeyError(f"per-layer metric {name!r} names no wrapped function")
        if what == "self_s":
            return selfs.get(fn, 0.0)
        if what == "calls":
            return float(tr.calls.get(fn, 0))
        if what == "errors":
            return float(tr.errors.get(fn, 0))
        if what in spans.RATIOS:
            num, den = (tr.counters.get(f"{fn}.{key}", 0) for key in spans.RATIOS[what])
            return num / den if den else 0.0
        if name in spans.COUNTERS:
            return float(tr.counters.get(name, 0))
    raise KeyError(f"unknown per-layer metric {name!r}")


def run_traced(w: chains.Workload, seed: int) -> int:
    _, ks, cases = set_up(w, seed)
    plain = Tally()
    t0 = time.perf_counter()
    one_pass(w, cases, ks, plain)
    plain_s = time.perf_counter() - t0

    tr = spans.Tracer()
    installed = spans.Installation(tr, PACKAGE)
    traced = Tally()
    try:
        t0 = time.perf_counter()
        one_pass(w, cases, ks, traced, tr)
        traced_s = time.perf_counter() - t0
    finally:
        installed.remove()

    selfs = tr.self_times()
    module_self = sum(v for q, v in selfs.items() if q != spans.ROOT_SPAN)
    overhead_est = spans.wrapper_cost() * len(tr.start)
    extra = {
        "failed_frac": traced.failed / max(traced.attempted, 1),
        "bench.self_s": selfs.get(spans.ROOT_SPAN, 0.0),
        "trace.loop_s": traced_s,
        "trace.untraced_loop_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_est_s": overhead_est,
        "trace.instances_per_s": traced.verified / traced_s,
        "trace.untraced_instances_per_s": plain.verified / plain_s,
        "trace.spanned_self_s": module_self,
        "trace.spans": float(len(tr.start)),
    }
    values = {spec["name"]: layer_value(spec["name"], tr, selfs, installed.wrapped, extra) for spec in metric_specs("per_layer")}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"trace-{w.name}-seed{seed}"
    summary = {
        "workload": w.name,
        "seed": seed,
        "pool": len(cases),
        "pool_digest": chains.pool_digest(cases),
        "metrics": values,
        "self_s": selfs,
        "calls": dict(tr.calls),
        "errors": dict(tr.errors),
        "counters": dict(tr.counters),
    }
    tr.dump(str(dump), summary)

    print(f"workload {w.name} seed {seed}: one untraced and one traced pass over {len(cases)} operations")
    print(f"tracing overhead: traced {values['trace.instances_per_s']:.4f} vs untraced "
          f"{values['trace.untraced_instances_per_s']:.4f} {w.unit}s/s "
          f"(loop {traced_s:.3f} s vs {plain_s:.3f} s; {len(tr.start)} spans at the "
          f"calibrated wrapper cost: {overhead_est:.3f} s)")
    unspanned = traced_s - module_self
    print(f"time accounting: module self time {module_self:.3f} s of loop {traced_s:.3f} s; "
          f"unspanned {unspanned:.3f} s vs estimated overhead {overhead_est:.3f} s")
    top = sorted(((v, q) for q, v in selfs.items()), reverse=True)[:5]
    print("top self time: " + ", ".join(f"{q} {100 * v / traced_s:.1f}%" for v, q in top))
    print(f"spans and counters written to {dump.relative_to(ROOT)}.json and .spans")
    report_failures(traced)
    emit(values, "per_layer", {}, traced, correct=traced.wrong == 0 and plain.wrong == 0)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; their outputs are echoed and their
    result objects collected into one final line."""
    results = {}
    for name in chains.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*chains.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a checkout that holds the package sources", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    w = chains.WORKLOADS[args.workload]
    return run_traced(w, args.seed) if args.trace else run_timed(w, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
