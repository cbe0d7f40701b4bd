"""Tests of the benchmark itself: span arithmetic, metric names, failure counting.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_child_coverage():
    tracer = spans.Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0, 10.0]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):
            pass
    # outer [0, 10], a [1, 3] holding a.inner [2, 2.5], b [4, 8]
    assert tracer.self_times() == pytest.approx([10 - 2 - 4, 2 - 0.5, 0.5, 4])


def test_self_time_counts_overlapping_children_once():
    tracer = spans.Tracer()
    for name, parent in (("p", -1), ("c1", 0), ("c2", 0)):
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.attrs.append(None)
        tracer.ops.append(0)
    tracer.starts[:] = [0.0, 1.0, 2.0]
    tracer.ends[:] = [10.0, 5.0, 12.0]  # c2 overlaps c1 and runs past p
    assert tracer.self_times()[0] == pytest.approx(10 - (5 - 1) - (10 - 5))


def test_spans_record_parent_and_op():
    tracer = spans.Tracer()
    tracer.op = 3
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            with tracer.span("grandchild") as grandchild:
                pass
        tracer.op = 4
        with tracer.span("sibling") as sibling:
            pass
    assert tracer.parents == [-1, root, child, root]
    assert (root, child, grandchild, sibling) == (0, 1, 2, 3)
    assert tracer.ops == [3, 3, 3, 4]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


def test_installed_tracer_catches_intra_package_calls_and_restores():
    import freespec as fs
    import freespec.extremality
    import freespec.fixtures
    import numpy.linalg

    original = (fs.classify, freespec.extremality.membership, numpy.linalg.eigh)
    point = fs.fixtures.load_fixture("freeex4")[0]
    pencil = fs.Pencil(fs.spin_tuple(3))
    tracer = spans.Tracer()
    with tracer.installed():
        cert = fs.classify(pencil, point)
        with tracer.pause():
            np.linalg.eigvalsh(np.eye(3))
    assert cert.verdict.value == "free"
    assert (fs.classify, freespec.extremality.membership, numpy.linalg.eigh) == original
    names = tracer.names
    top = names.index("extremality.classify")
    assert tracer.parents[top] == -1
    member = names.index("pencil.membership")
    assert tracer.parents[member] == top
    assert names[tracer.parents[names.index("lapack.eigh")]] == "linalg.hermitian_eigen"
    assert "lapack.eigvalsh" not in names  # paused
    metrics = spans.layer_metrics(tracer)
    assert metrics["extremality.classify.calls"] == 1
    assert metrics["extremality.hermitian_direction_system.max_unknowns"] == 3 * 4 * 4
    assert metrics["lapack.svd.full_matrices_calls"] == metrics["lapack.svd.calls"] > 0


def test_probes_and_max_unknowns_follow_ancestry():
    tracer = spans.Tracer()
    with tracer.span("extremality.arveson_dilate") as dilate:
        for _ in range(3):
            with tracer.span("linalg.min_eigenvalue"):
                pass
        with tracer.span("extremality.column_dilation_system"):
            with tracer.span("linalg.real_nullspace") as ns:
                tracer.note(ns, "cols", 12)
        tracer.note(dilate, "accepted_steps", 2)
    with tracer.span("linalg.min_eigenvalue"):
        pass
    metrics = spans.layer_metrics(tracer)
    assert metrics["extremality.arveson_dilate.probes"] == 3
    assert metrics["extremality.arveson_dilate.probes_per_step"] == 1.5
    assert metrics["linalg.min_eigenvalue.calls"] == 4
    assert metrics["extremality.column_dilation_system.max_unknowns"] == 12
    assert metrics["extremality.hermitian_direction_system.max_unknowns"] == 0


def test_metric_names_follow_the_rule_and_match_benchmark_json():
    e2e = [name for name, _ in run.END_TO_END]
    layers = run.per_layer_specs()
    names = e2e + [name for name, _, _ in layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for _, unit in run.END_TO_END)
    assert all(UNIT.match(unit) and better in ("lower", "higher") for _, unit, better in layers)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_calibration_scales_each_pass_by_its_own_kernel_times():
    calibration = run.Calibration()
    calibration.passes[:] = [[0.02, 0.03, 0.09], [0.06, 0.05, 0.07]]  # medians 0.03, 0.06
    passes = [[workloads.OpResult("op", 1.0, False, True)] for _ in range(2)]
    scaled = calibration.scaled(passes)
    reference = run.Calibration.REFERENCE_S
    assert [p[0].seconds for p in scaled] == pytest.approx([reference / 0.03, reference / 0.06])
    assert passes[0][0].seconds == 1.0  # the measured results are left as they were
    values = {"wall_s": 10.0, "lapack.svd.calls": 7}
    whole = run.calibrated(values, [("wall_s", "s"), ("lapack.svd.calls", "count")], calibration)
    assert whole["wall_s"] == pytest.approx(10.0 * reference / 0.055)  # median of all six runs
    assert whole["lapack.svd.calls"] == 7


def _certify(tmp_path):
    workload = workloads.Certify(workloads.Context(ROOT, str(tmp_path), seed=0))
    workload.prepare()
    cheap = [op for op in workload.ops(0) if op.kind in ("free_n4", "non_member", "interior")]
    assert len(cheap) == 3
    return cheap


def test_injected_wrong_verdict_counts_as_failed(tmp_path):
    free, outside, inside = _certify(tmp_path)
    outside.run = inside.run  # an interior certificate handed to the non-member check
    results = run.run_pass([free, outside, inside])
    assert [r.failed for r in results] == [False, True, False]
    assert not results[1].correct and "verdict interior" in results[1].reason
    assert sum(r.failed for r in results) / len(results) == pytest.approx(1 / 3)


def test_raising_op_counts_as_failed(tmp_path):
    from freespec.errors import NumericalError

    def no_verdict():
        raise NumericalError("eigensolve did not converge")

    crash, documented = _certify(tmp_path)[:2]
    crash.run = lambda: 1 / 0
    documented.run = no_verdict
    crashed, gave_up = run.run_pass([crash, documented])
    assert crashed.failed and not crashed.correct and "ZeroDivisionError" in crashed.reason
    assert gave_up.failed and gave_up.correct and "NumericalError" in gave_up.reason


def test_cli_pass_in_process_passes_its_checks(tmp_path):
    workload = workloads.Cli(workloads.Context(ROOT, str(tmp_path), seed=0))
    workload.prepare()
    results = run.run_pass(workload.ops(0, inline=True))
    assert [r.reason for r in results if r.failed] == []
    assert len(results) == 18 and workload.key_op([results]) > 0


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", os.path.join(ROOT, "bench"))
    code = run.main(["--workload", "certify", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
