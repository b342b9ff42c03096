"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# per-layer metrics and the workload meant to exercise each of them
EXERCISED = {
    "symbolic": [
        "scalars.gauss_new", "scalars.max_bits",
        "poly.mul.calls", "poly.mul.self_ms", "poly.max_terms",
        "fields.wedge.calls", "fields.wedge.self_ms",
        "fields.schouten.calls", "fields.schouten.self_ms",
        "bivector.jacobi_residual.self_ms", "bivector.pair_conditions.self_ms",
        "bivector.jacobi_pde_residuals.self_ms", "bivector.cotangent_bracket.self_ms",
    ],
    "pointwise": [
        "scalars.gauss_new", "scalars.max_bits", "poly.eval.self_ms",
        "linalg.rref.calls", "linalg.rref.pivots", "linalg.rref.self_ms",
        "lagrangian.hat.self_ms", "lagrangian.check.self_ms", "lagrangian.tilde.self_ms",
        "lagrangian.products.self_ms", "lagrangian.indices.self_ms", "lagrangian.images.self_ms",
        "pointwise.rank_profile.self_ms", "pointwise.gcs_matrix.self_ms",
        "pointwise.theorem_7_18_check.self_ms",
    ],
    "cli_batch": [
        "normal_form.mixed_check.self_ms", "normal_form.splitting_check.self_ms",
        "grammar.parse_poly.calls", "grammar.parse_poly.self_ms",
        "problem.parse_problem.self_ms",
        "cli.parse_ms", "cli.build_ms", "cli.compute_ms", "cli.render_ms",
    ],
}
EVERYWHERE = ["host.ref_ms", "trace.overhead_ratio"]

# metrics that must read exactly zero where the workload bypasses the layer
BYPASSED = {
    "symbolic": ["linalg.rref.calls", "grammar.parse_poly.calls"],
    "pointwise": ["fields.schouten.calls", "poly.mul.calls"],
}


@pytest.fixture(scope="module")
def cx():
    return run.load_package()


@pytest.fixture(scope="module")
def traced(cx, tmp_path_factory):
    """Per-layer metrics of one traced cycle of each workload."""
    out = {}
    for name in workloads.WORKLOADS:
        cycles = workloads.generate(cx, name, 11, 1, tmp_path_factory.mktemp(name))
        out[name] = run.traced_run(cx, cycles, 0)[0]
    return out


def test_spec_lists_the_metrics_the_runner_reports():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        unit = run.END_TO_END.get(m["name"]) or run.PER_LAYER[m["name"]]
        assert m["unit"] == unit


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(cx, name, tmp_path):
    def inputs(seed, sub):
        cycles = workloads.generate(cx, name, seed, 2, tmp_path / sub)
        return [op.inputs for cycle in cycles for op in cycle]

    first = inputs(3, "a")
    assert first == inputs(3, "b")
    assert first != inputs(4, "c")


def _plant(name, expected):
    if name == "symbolic":
        return not expected  # a known-Poisson bivector declared non-Poisson
    if name == "pointwise":
        return expected + 1  # a wrong real index
    code, verdicts = expected
    first = next(iter(verdicts))
    return code, dict(verdicts, **{first: "fail" if verdicts[first] == "pass" else "pass"})


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_planted_wrong_answer_counts_as_failed(cx, name, tmp_path):
    cycles = workloads.generate(cx, name, 5, 1, tmp_path)
    res = run.measure(cycles, 0)
    assert (res["attempted"], res["failed"]) == (len(cycles[0]), 0)
    op = cycles[0][0]
    op.expected = _plant(name, op.expected)
    res = run.measure(cycles, 0)
    assert (res["attempted"], res["failed"]) == (len(cycles[0]), 1)


def test_every_per_layer_metric_is_exercised_by_some_workload():
    named = {m for ms in EXERCISED.values() for m in ms} | set(EVERYWHERE)
    assert named == set(run.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_nonzero_where_exercised(traced, name):
    metrics = traced[name]
    assert set(metrics) == set(run.PER_LAYER)
    zero = [m for m in EXERCISED[name] + EVERYWHERE if not metrics[m] > 0]
    assert not zero


@pytest.mark.parametrize("name", list(BYPASSED))
def test_bypass_predictions(traced, name):
    assert {m: traced[name][m] for m in BYPASSED[name]} == {m: 0 for m in BYPASSED[name]}


def test_tracer_self_time_and_parents():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(2000))

    inner_w = tracer.span("t.inner", inner)
    outer_w = tracer.span("t.outer", lambda: inner_w() + inner_w())
    tracer.run_op(1, outer_w)
    assert tracer.calls == {"t.inner": 2, "t.outer": 1, "op": 1}
    self_outer = tracer.total["t.outer"] - tracer.total["t.inner"]
    assert tracer.self_time["t.outer"] == pytest.approx(self_outer, abs=1e-9)
    assert tracer.self_time["t.inner"] == pytest.approx(tracer.total["t.inner"])
    by_name = {}
    for op, sid, parent, name, start, end in tracer.spans:
        assert op == 1 and start <= end
        by_name.setdefault(name, []).append((sid, parent))
    (outer_id, outer_parent), = by_name["t.outer"]
    (op_id, _), = by_name["op"]
    assert outer_parent == op_id
    assert [p for _, p in by_name["t.inner"]] == [outer_id, outer_id]


def test_tracer_rebinds_names_imported_into_other_modules(cx):
    schouten, parse_poly = cx.fields.schouten, cx.grammar.parse_poly
    tracer = tracing.Tracer()
    tracer.install(cx)
    try:
        assert cx.fields.schouten is not schouten
        assert cx.bivector.schouten is cx.fields.schouten
        assert cx.pointwise.schouten is cx.fields.schouten
        assert cx.problem.parse_poly is cx.grammar.parse_poly is cx.cli.parse_poly
        assert cx.grammar.parse_poly is not parse_poly
    finally:
        tracer.uninstall()
    assert cx.fields.schouten is schouten and cx.bivector.schouten is schouten
    assert cx.cli.parse_poly is parse_poly


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "symbolic",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert "correct" not in res.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_follows_the_result_format(capsys, trace):
    assert run.main(["--workload", "cli_batch", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
