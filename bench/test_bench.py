"""Tests of the benchmark itself: tracing changes nothing, slices merge to
the unsliced result, seeds drive the inputs, metric lists match BENCHMARK.json,
the calibration kernel stays outside the program.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import meanbounds as mb  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_traced_output_is_byte_identical_and_bindings_restored(name):
    w = workloads.make(name, mb, 11)
    specs = w.specs[:3]
    before = spans.bindings()
    plain = [w.text(w.run(s)) for s in specs]
    tracer = spans.Tracer()
    with tracer.installed(0):
        assert spans.bindings() != before
        traced = [w.text(w.run(s)) for s in specs]
    assert traced == plain
    assert spans.bindings() == before
    assert len(tracer.name) > 0


def test_tracer_restores_bindings_when_a_call_raises():
    before = spans.bindings()
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(0):
            mb.weighted_logarithmic(-1.0, 2.0, 0.5)
    assert spans.bindings() == before
    sp = spans.Spans(tracer, 0)
    assert sp.errors("scalar.weighted_logarithmic") == 1


@pytest.mark.parametrize("runner, cfg", [
    (mb.run_scalar_suite, mb.SuiteConfig(seed=3, trials=60)),
    (mb.run_bounds_suite, mb.SuiteConfig(seed=3, trials=60)),
    (mb.run_operator_suite, mb.SuiteConfig(seed=3, trials=10, dims=(2, 3))),
])
def test_merged_slices_equal_one_unsliced_call(runner, cfg):
    total = cfg.trials * (len(cfg.dims) if runner is mb.run_operator_suite else 1)
    merged = None
    for start in range(0, total, 5):
        part = runner(cfg, start, 5)
        merged = part if merged is None else mb.merge_reports(merged, part)
    assert merged.to_dict() == runner(cfg).to_dict()


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_and_repeats_them(name):
    first, again, other = (workloads.make(name, mb, seed) for seed in (5, 5, 6))
    out = [w.text(w.run(w.specs[1])) for w in (first, again, other)]
    assert out[0] == out[1]
    assert out[0] != out[2]


@pytest.mark.parametrize("name", NAMES)
def test_first_slices_pass_their_output_checks(name):
    w = workloads.make(name, mb, 42)
    for spec in w.specs[:4]:
        assert w.check(spec, w.run(spec)) == 0
    assert w.kind == "scan" or set(w.merged.min_slacks) <= w.reference


def test_output_check_counts_a_failed_scan_row():
    w = workloads.make("scan", mb, 1)
    spec = w.specs[0]
    code, text = w.run(spec)
    payload = json.loads(text)
    payload["rows"][3]["pass"] = False
    assert w.check(spec, (code, json.dumps(payload))) == 1
    assert w.check(spec, (code, "not json")) == w.instances


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics_cover_per_layer_list(name):
    w = workloads.make(name, mb, 2)
    specs = w.specs[:2]
    t_plain, _ = run.timed_pass(w, specs)
    tracer = spans.Tracer()
    with tracer.installed(0):
        t_traced, outs = run.timed_pass(w, specs)
    sp = spans.Spans(tracer, 0)
    self_times = [sp.self_seconds(layer) for layer in spans.LAYERS]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= t_traced
    got = run.layer_metrics(sp, w.kind, len(specs) * w.instances, t_plain, t_traced,
                            sum(len(w.text(o)) for o in outs))
    assert set(got) == {m["name"] for m in SPEC["per_layer"]}
    if name == "verify-operator":
        assert got["operators.eig_calls_per_chain"] > 0


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert set(NAMES) <= set(workloads.NAMES)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


def test_calibration_kernel_is_fixed_work_outside_the_program():
    import calibrate

    assert calibrate.kernel() == calibrate.kernel()
    probe = "import sys, calibrate; calibrate.kernel(); print('meanbounds' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]
