"""meanbounds benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload verify-scalar --seed 42 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
timed at reference speed (see calibrate.py), with ``--trace 1`` the
per-layer metrics from a traced run (see bench/README.md).  The program
is imported from ``src/`` of the checkout that holds this file, with
BLAS/OpenMP pinned to one thread.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A run cycles through the workload's first ROUND_SLICES slice specs.  Each
# repeat of a slice is followed by the calibration kernel, and a spec's time
# is the median over its repeats of slice time / kernel time, scaled to
# reference speed: the machine's speed drifts by up to 2x over seconds to
# minutes, and the ratio cancels that drift.  p90 over 100 specs leaves ten
# beyond it.
ROUND_SLICES = 100
MIN_ROUNDS = 3
# Fresh interpreters per run for setup_s, spread over the run and counted in
# its time; each is calibrated by kernels run in it, and the median reported.
SETUP_REPEATS = 20
TRACE_PAIRS = 5  # at most this many untraced/traced pass pairs, to bound span memory
TRACE_INSTANCES = 2000  # instances per traced pass (at least two slices)
SUBPROCESS_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import meanbounds
sys.path.insert(0, {bench!r})
import workloads
w = workloads.make({name!r}, meanbounds, {seed})
w.run(w.specs[0])
t1 = time.perf_counter()
import calibrate
print(repr(t1 - t0), repr(calibrate.kernel_s_median()))
"""


def load_program():
    """Import meanbounds from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "meanbounds" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import meanbounds

    if Path(meanbounds.__file__).resolve().parent != SRC / "meanbounds":
        raise SystemExit(f"bench: meanbounds imported from {meanbounds.__file__}, not {SRC}")
    return meanbounds


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """(wall time, kernel time), in a fresh interpreter: the wall time from
    before ``import meanbounds`` to the end of the workload's first slice,
    and the median calibration kernel time measured right after it."""
    code = _SETUP_PROBE.format(bench=str(BENCH), name=name, seed=seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    wall, kernel = proc.stdout.split()[-2:]
    return float(wall), float(kernel)


def run_slice(w, spec):
    """(seconds, output or None); an exception counts the slice as failed."""
    t0 = perf_counter()
    try:
        out = w.run(spec)
    except Exception:
        traceback.print_exc()
        return perf_counter() - t0, None
    return perf_counter() - t0, out


def checked(w, spec, out) -> int:
    return w.instances if out is None else w.check(spec, out)


def plain_run(mb, workloads, calibrate, name, seed, seconds):
    """Rounds over the slice specs for ``seconds``, with the set-up probes
    spread evenly between slices."""
    w = workloads.make(name, mb, seed)
    specs = w.specs[:ROUND_SLICES]
    _, out = run_slice(w, specs[0])  # warm-up
    calibrate.kernel()
    attempted, failed = w.instances, checked(w, specs[0], out)
    times = [[] for _ in specs]
    ratios = [[] for _ in specs]
    kernels = []
    setup = []
    rounds = 0
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline or rounds < MIN_ROUNDS:
        for k, spec in enumerate(specs):
            while len(setup) < SETUP_REPEATS * (perf_counter() - start) / seconds:
                setup.append(setup_probe(name, seed))
            dt, out = run_slice(w, spec)
            kernels.append(calibrate.kernel_s())
            times[k].append(dt)
            ratios[k].append(dt / kernels[-1])
            attempted += w.instances
            failed += checked(w, spec, out)
            if rounds >= MIN_ROUNDS and perf_counter() >= deadline:
                break
        rounds += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(name, seed))
    ref = [statistics.median(r) * calibrate.KERNEL_S for r in ratios]
    metrics = {
        "instances_per_s": len(specs) * w.instances / sum(ref),
        "slice_ms_p50": statistics.median(ref) * 1e3,
        "slice_ms_p90": statistics.quantiles(ref, n=10)[-1] * 1e3,
        "setup_s": statistics.median(wall / kern for wall, kern in setup) * calibrate.KERNEL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    best = [min(t) for t in times]
    summary = {"slices": sum(map(len, times)), "distinct_slices": len(specs),
               "instances_per_slice": w.instances,
               "kernel_ms_median": statistics.median(kernels) * 1e3,
               "wall": {"instances_per_s": len(specs) * w.instances / sum(best),
                        "slice_ms_p50": statistics.median(best) * 1e3,
                        "setup_s": min(wall for wall, _ in setup)}}
    return w.finish(), attempted, failed, metrics, summary


def timed_pass(w, specs):
    runs = [run_slice(w, spec) for spec in specs]
    return sum(dt for dt, _ in runs), [out for _, out in runs]


def layer_metrics(sp, kind, instances, t_plain, t_traced, output_bytes) -> dict:
    """Per-layer metrics of one traced pass over ``instances`` instances."""
    m = {f"{layer}.self_s": sp.self_seconds(layer) for layer in sp.layers}
    trials = instances if kind == "suite" else 0
    points = instances if kind == "scan" else 0

    def per(num, den):
        return num / den if den else 0.0

    lmu_points = sp.counters["scalar.log_mean_unit.points"]
    m["scalar.calls"] = sp.entries("scalar")
    m["scalar.logarithmic_chain.us_per_call"] = sp.mean_us("scalar.logarithmic_chain")
    m["scalar.identric_chain.us_per_call"] = sp.mean_us("scalar.identric_chain")
    m["scalar.log_mean_unit.points"] = per(lmu_points, sp.calls("scalar.log_mean_unit"))
    m["scalar.log_mean_unit.ns_per_point"] = per(
        sp.total_seconds("scalar.log_mean_unit") * 1e9, lmu_points)

    quad = sp.calls("quadrature.integrate")
    m["quadrature.integrate.calls"] = quad
    m["quadrature.integrate.us_per_call"] = sp.mean_us("quadrature.integrate")
    m["quadrature.evals_per_call"] = per(sp.counters["quadrature.evals"], quad)
    m["quadrature.levels_per_call"] = per(sp.counters["quadrature.levels"], quad)
    m["quadrature.errors"] = sp.errors("quadrature.integrate")

    m["convex.chain_eval.us_per_call"] = sp.mean_us("convex.chain_eval")
    m["convex.gap_checks.us_per_call"] = sp.mean_us(
        "convex.gap_sandwich_check", "convex.refined_gap_check")
    m["convex.split_integral_avg.calls_per_trial"] = per(
        sp.calls("convex.split_integral_avg"), trials)

    m["bounds.deriv_gap_bounds.us_per_call"] = sp.mean_us("bounds.deriv_gap_bounds")
    m["bounds.curvature_gap_bounds.us_per_call"] = sp.mean_us("bounds.curvature_gap_bounds")
    m["bounds.mean_bounds.us_per_call"] = sp.mean_us(
        "bounds.logmean_diff_reverse", "bounds.identric_ratio_reverse",
        "bounds.logmean_diff_refinement", "bounds.identric_ratio_refinement")

    chains = [f"operators.operator_chain.d{dim}" for dim in (2, 3, 5, 8)]
    for name in chains:
        m[f"operators.operator_chain.us_per_call.{name.rsplit('.', 1)[1]}"] = sp.mean_us(name)
    m["operators.eig_calls_per_chain"] = per(
        sp.counters["operators.operator_chain.eig_calls"], sp.calls(*chains))
    m["operators.SpdMatrix.us_per_construct"] = sp.mean_us("operators.SpdMatrix")
    m["operators.breakdowns"] = sp.errors(*chains)

    m["reports.per_instance"] = per(
        sp.calls("reports.ChainReport.from_values", "reports.GapBoundReport.build"), instances)
    m["harness.self_us_per_trial"] = per(sp.self_seconds("harness") * 1e6, trials)
    m["harness.random_spd.us_per_call"] = sp.mean_us("harness.random_spd")
    m["cli.output_bytes_per_point"] = per(output_bytes, points)
    m["trace.overhead_share"] = t_traced / t_plain - 1.0
    return m


def traced_run(mb, workloads, spans, name, seed, seconds):
    """Alternate untraced and traced passes over the same slices while the
    time allows another pair, up to TRACE_PAIRS pairs; per-layer metrics are
    medians over the pairs."""
    w = workloads.make(name, mb, seed)
    w.run(w.specs[0])  # warm-up
    specs = w.specs[:max(2, TRACE_INSTANCES // w.instances)]
    tracer = spans.Tracer()
    before = spans.bindings()
    attempted = failed = 0
    correct = True
    passes = []
    deadline = perf_counter() + seconds
    pair_s = 0.0
    while not passes or (len(passes) < TRACE_PAIRS and perf_counter() + pair_s < deadline):
        run_id = len(passes)
        t0 = perf_counter()
        t_plain, plain = timed_pass(w, specs)
        with tracer.installed(run_id):
            t_traced, traced = timed_pass(w, specs)
        correct &= spans.bindings() == before
        for spec, a, b in zip(specs, plain, traced):
            attempted += 2 * w.instances
            failed += checked(w, spec, a) + checked(w, spec, b)
            if a is not None and b is not None and w.text(a) != w.text(b):
                failed += w.instances
        sp = spans.Spans(tracer, run_id)
        correct &= sum(sp.self_seconds(layer) for layer in spans.LAYERS) <= t_traced
        out_bytes = sum(len(w.text(out).encode()) for out in traced if out is not None)
        passes.append(layer_metrics(sp, w.kind, len(specs) * w.instances,
                                    t_plain, t_traced, out_bytes))
        pair_s = perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{name}.npz")
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    summary = {"passes": len(passes), "slices_per_pass": len(specs),
               "instances_per_slice": w.instances}
    return correct and w.finish(), attempted, failed, metrics, summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # before numpy is first imported, so that BLAS starts with one thread;
    # the set-up probes inherit the setting
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    mb = load_program()
    sys.path.insert(0, str(BENCH))
    import calibrate
    import spans
    import workloads

    if args.trace:
        result = traced_run(mb, workloads, spans, args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        result = plain_run(mb, workloads, calibrate, args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    correct, attempted, failed, values, summary = result
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")

    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary,
                      "failed_fraction": failed / attempted}))
    for m in wanted:
        print(f"{m['name']:45s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(correct) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
