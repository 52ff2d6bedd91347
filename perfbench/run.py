"""Run one workload of the toda2 benchmark and print its metrics.

    python3 perfbench/run.py --workload check-desk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: toda2 is imported from ``src/``.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it give the
environment, per-input timings and the end-to-end metrics under the names
of the workload (``check_desk_s``, ``flow_steps_per_s``, ...).

Set-up (import, algebra builds with ``validate_spec``, T_P caches and
sample points) is repeated ``SETUP_REPEATS`` times; ``setup_s`` is the
median.  The timed loop then cycles over the workload's inputs until
``--seconds`` have passed and every input has run once; ``pass_s`` is the
sum over inputs of each input's median time, i.e. one pass over the inputs.
All times are nominal seconds: wall time rescaled by a reference kernel
timed between operations (see ``HostClock``); wall times are printed too.

With ``--trace 1`` every input runs twice in turn, untraced and traced.
``trace.overhead_s`` is the difference of the two ``pass_s``; ``trace.unaccounted_s`` is the time of the traced passes that
no layer span covers.  Layer times are self times per pass, counts are per
pass and labelled "computed" where they follow from the inputs alone.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
# Counts that follow from the inputs alone; they repeat exactly across runs.
COMPUTED_COUNTS = ("poisson.bracket_pairs", "poisson.linear.matrix_calls",
                   "poisson.quadratic.matrix_calls", "flows.rk4_steps",
                   "flows.field_evals", "flows.truncated", "invariants.family_calls",
                   "algebra.build_calls", "checks.reports")


def import_toda2():
    """A fresh import of toda2 (and its CLI), so that set-up pays for it."""
    for mod in [m for m in sys.modules if m == "toda2" or m.startswith("toda2.")]:
        del sys.modules[mod]
    tk = importlib.import_module("toda2")
    importlib.import_module("toda2.cli")
    return tk


def environment(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


class HostClock:
    """Host speed, sampled by timing fixed kernels between operations.

    On a shared host, speed drifts by up to 2x over tens of seconds, and
    the drift moves every timing alike.  A sample times a small-matrix numpy
    loop and a pure-Python loop, the two kinds of work toda2 does, and takes
    their geometric mean.  An interval is rescaled to "nominal seconds",
    seconds on a host where a sample takes ``NOMINAL_S``, by the median of
    the samples within ``WINDOW_S`` of it: the drift is slow, and the median
    keeps a short stall that hits one sample from rescaling its neighbours.
    """

    NOMINAL_S = 0.01
    EVERY_S = 0.25      # sample at most this often: about 6% of the run
    WINDOW_S = 1.0
    _A = np.eye(6) + np.diag(np.full(5, 0.5), 1) - np.diag(np.full(5, 0.25), -1)
    _X = np.linspace(-1.0, 1.0, 6)

    def __init__(self):
        self.at: list[float] = []        # start of each sample
        self.took: list[float] = []      # its geometric-mean duration

    def sample(self) -> None:
        t0 = perf_counter()
        x = self._X
        for _ in range(1500):
            x = self._A @ x
            x = x / np.abs(x).max()
        t1 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        t2 = perf_counter()
        self.at.append(t0)
        self.took.append(((t1 - t0) * (t2 - t1)) ** 0.5)

    def sample_if_due(self) -> None:
        if perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor to nominal seconds for an interval between two samples."""
        lo = min(bisect.bisect_right(self.at, start) - 1,
                 bisect.bisect_left(self.at, start - self.WINDOW_S))
        hi = max(bisect.bisect_left(self.at, end) + 1,
                 bisect.bisect_right(self.at, end + self.WINDOW_S))
        return self.NOMINAL_S / statistics.median(self.took[lo:hi])


def set_up(wl, seed, tr, clock: HostClock):
    """Repeat the workload's set-up; return the last one and the timings."""
    times, build_s, build_calls = [], [], 0
    for _ in range(SETUP_REPEATS):
        items = None                 # drop the previous set-up before the next
        gc.collect()
        clock.sample()
        mark = tr.mark()
        t0 = perf_counter()
        with tr.span("setup"):
            tk = import_toda2()
            items = wl.setup(tk, seed, tr, OUT_DIR)
        t1 = perf_counter()
        clock.sample()
        scale = clock.scale(t0, t1)
        times.append((t1 - t0) * scale)
        build_s.append(tr.self_times(mark).get("algebra.build", 0.0) * scale)
        build_calls = sum(1 for s in tr.spans[mark:] if s[0] == "algebra.build")
    return tk, items, times, build_s, build_calls


class Samples:
    """Per-input times, span self times, outcomes and reference results.

    Times are in nominal seconds (see HostClock); ``raw`` keeps wall seconds.
    """

    def __init__(self, items):
        self.wall = {it.key: [] for it in items}
        self.raw = {it.key: [] for it in items}
        self.layers = {it.key: [] for it in items}
        self.first = {}                 # key -> first Outcome (counts, evidence)
        self.attempted = 0
        self.failed = 0
        self.passes = 0.0

    def record(self, item, outcome: Outcome, wall, scale, layers) -> None:
        self.attempted += 1
        ref = self.first.setdefault(item.key, outcome)
        if outcome.ok and (outcome.counts != ref.counts
                           or outcome.evidence != ref.evidence):
            outcome.ok = False
            outcome.note = "result differs from the first run of this input"
        if not outcome.ok:
            self.failed += 1
            print(f"FAILED {item.key}: {outcome.note}", file=sys.stderr)
            return
        self.wall[item.key].append(wall * scale)
        self.raw[item.key].append(wall)
        if layers is not None:
            self.layers[item.key].append({k: v * scale for k, v in layers.items()})

    def pass_s(self, raw: bool = False) -> float:
        walls = self.raw if raw else self.wall
        return sum(statistics.median(v) for v in walls.values() if v)

    def layer_s(self, name: str) -> float:
        """Median self time of one span name, summed over inputs: per pass."""
        return sum(statistics.median(s.get(name, 0.0) for s in v)
                   for v in self.layers.values() if v)

    def count(self, name: str):
        """A per-input count summed over inputs: per pass."""
        return sum(o.counts.get(name, 0) for o in self.first.values())

    def count_names(self) -> list[str]:
        return sorted({k for o in self.first.values() for k in o.counts})


def measure(wl, tk, items, runs, seconds, clock: HostClock) -> None:
    """Cycle over the inputs until ``seconds`` have passed and each ran once.

    ``runs`` pairs a tracer with the Samples it fills.  With two pairs
    (untraced, traced) each input runs under both back to back, the order
    alternating by pass, so that host drift cannot pose as tracing overhead.
    """
    done = []
    clock.sample()
    start = perf_counter()
    k = 0
    while k < len(items) or perf_counter() - start < seconds:
        item = items[k % len(items)]
        order = runs if (k // len(items)) % 2 == 0 else runs[::-1]
        k += 1
        for tr, samples in order:
            clock.sample_if_due()
            mark = tr.mark()
            t0 = perf_counter()
            try:
                with tr.span("op"):
                    raw = wl.run(tk, item, tr)
                t1 = perf_counter()
                outcome = wl.check(tk, item, raw)
            except Exception as exc:   # an operation failed: count it, keep going
                traceback.print_exc()
                t1, outcome = t0, Outcome(ok=False, note=repr(exc))
            layers = tr.self_times(mark) if tr.enabled else None
            done.append((samples, item, outcome, t0, t1, layers))
    clock.sample()
    for samples, item, outcome, t0, t1, layers in done:
        samples.record(item, outcome, t1 - t0, clock.scale(t0, t1), layers)
    for _, samples in runs:
        samples.passes = k / len(items)


def percentile_line(values) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return "no samples"
    out = f"median {statistics.median(xs):.6g} s"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out += f", p{p} {xs[max(0, -(-p * n // 100) - 1)]:.6g} s"
            break
    return out + f", n={n}"


def per_layer(wl, untraced: Samples, traced: Samples, build_s, build_calls) -> dict:
    names = {span for v in traced.layers.values() for s in v for span in s} - {"op"}
    spans = {f"{name}_s": traced.layer_s(name) for name in names}
    m = dict(spans)
    m["algebra.build_s"] = statistics.median(build_s)
    m["algebra.build_calls"] = build_calls
    for name in traced.count_names():
        m[name] = traced.count(name)
    steps = traced.count("flows.integrate_steps")
    m["flows.step_us"] = 1e6 * m.get("flows.rk4_s", 0.0) / steps if steps else 0.0
    points = [o.evidence for o in traced.first.values() if "sv_gap" in o.evidence]
    m["poisson.corrected_share"] = (
        sum(p["corrected"] for p in points) / len(points) if points else 0.0)
    m["poisson.invariance_defect_max"] = max(
        (p["invariance_defect"] for p in points), default=0.0)
    m["poisson.sv_gap_min"] = min((p["sv_gap"] for p in points), default=0.0)
    untraced_pass, traced_pass = untraced.pass_s(), traced.pass_s()
    # a workload that runs cli.main untraced runs the batteries it calls traced
    m["cli.self_s"] = untraced_pass - sum(spans.values()) if wl.via_cli else 0.0
    m["trace.overhead_s"] = traced_pass - untraced_pass
    m["trace.unaccounted_s"] = traced.layer_s("op")
    return m


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Set up and measure one workload; return (result dict, report lines)."""
    OUT_DIR.mkdir(exist_ok=True)
    tr = Tracer(enabled=trace, run_id=f"{wl.name}:{seed}:{os.getpid()}")
    lines = [f"env {json.dumps(environment(seed))}"]
    clock = HostClock()
    tk, items, setup_times, build_s, build_calls = set_up(wl, seed, tr, clock)
    untraced = Samples(items)
    runs = [(Tracer(enabled=False, run_id=tr.run_id), untraced)]
    traced = None
    if trace:
        traced = Samples(items)
        runs.append((tr, traced))
    measure(wl, tk, items, runs, seconds, clock)
    if trace:
        # traced and untraced paths must agree on every input
        for key, ref in untraced.first.items():
            got = traced.first.get(key)
            if got is None or (got.counts, got.evidence) != (ref.counts, ref.evidence):
                traced.failed += 1
                print(f"FAILED {key}: traced run differs from untraced", file=sys.stderr)
        tr.dump(OUT_DIR / f"trace-{wl.name}-seed{seed}.json")

    pass_s = untraced.pass_s()
    lines.append(f"host reference kernel: {percentile_line(clock.took)} "
                 f"(nominal {HostClock.NOMINAL_S:g} s); times below are nominal seconds")
    lines.append(f"workload {wl.name}: {len(items)} inputs, "
                 f"{untraced.passes:.2f} untraced passes, "
                 f"one pass {untraced.pass_s(raw=True):.6g} s of wall time")
    for key, walls in untraced.wall.items():
        lines.append(f"  {key}: {percentile_line(walls)}")
    e2e = {
        "setup_s": statistics.median(setup_times),
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = untraced.attempted + (traced.attempted if traced else 0)
    failed = untraced.failed + (traced.failed if traced else 0)
    lines.append(f"setup_s {e2e['setup_s']:.6g} s  "
                 f"({percentile_line(setup_times)} set-ups)")
    name, value, unit = wl.headline(untraced.count, pass_s)
    lines.append(f"{name} {value:.6g} {unit}")
    lines.append(f"peak_rss_mb {e2e['peak_rss_mb']:.6g} MB")
    lines.append(f"ops_failed_share {failed / attempted:.6g}  ({failed}/{attempted})")
    metrics = e2e
    if trace:
        metrics = per_layer(wl, untraced, traced, build_s, build_calls)
        for name in sorted(metrics):
            tag = "  (computed)" if name in COMPUTED_COUNTS else ""
            lines.append(f"layer {name} {metrics[name]:.6g}{tag}")
    counted = traced if trace else untraced
    counts = {name: counted.count(name) for name in counted.count_names()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "counts": counts}, lines


def result_line(spec: dict, result: dict, trace: bool) -> dict:
    """The final JSON object, with the metrics BENCHMARK.json names, in order."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    # a layer the workload never calls has no spans and no counts: 0
    got = (lambda name: result["metrics"].get(name, 0.0)) if trace \
        else (lambda name: result["metrics"][name])
    metrics = {m["name"]: {"value": float(got(m["name"])), "unit": m["unit"]}
               for m in wanted}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "toda2" / "__init__.py").is_file():
        print(f"error: no toda2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result_line(spec, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
