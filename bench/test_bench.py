"""Tests of the benchmark itself: plans, gate, tracer wiring and output.

They run tiny plans in-process so that they stay cheap; the full workloads are
exercised by bench/run.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import harness
import run
from tracer import Tracer, bits_of

QI = harness.load_qident()
IDENT = QI.identities
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

# Cheap checks that between them reach every layer's traced functions.
SMALL_IDS = (
    "andrews_qwatson",
    "gram_det",
    "pfaffian_eval",
    "moment_double_sum",
    "det_engines",
    "contiguous_relation",
    "connection_coeffs",
    "six_term_factorization",
)


def small_plan(ids=SMALL_IDS):
    workload = harness.Workload("small", ids, trials=2)
    return harness.plan(QI, workload)


def traced_pass(checks, trials=2, seed=0):
    tracer = Tracer(harness.bits_labels(QI))
    return harness.run_pass(QI, checks, trials, seed, tracer=tracer), tracer


def test_suite_default_is_qident_verify_all():
    checks = harness.plan(QI, harness.WORKLOADS["suite_default"])
    assert harness.WORKLOADS["suite_default"].trials == 20
    assert [c.id for c, _ in checks] == [c.id for c in IDENT.REGISTRY]
    assert all(sizes == check.defaults for check, sizes in checks)


def test_larger_tier_resolves_like_cli_flags():
    for check, sizes in harness.plan(QI, harness.WORKLOADS["linalg_large"]):
        assert sizes == replace(check.defaults, n_max=10, m_max=5)
    assert "bordered_det" not in harness.WORKLOADS["linalg_large"].ids


def test_pass_matches_cli_run_suite():
    from qident.cli import SuiteConfig, run_suite

    ids = ("three_term_kernel", "even_order_det", "gamma_pfaffian")
    reports, _ = run_suite(SuiteConfig(ids=ids, trials=3, seed=5))
    result = harness.run_pass(QI, harness.plan(QI, harness.Workload("w", ids, 3)), 3, 5)
    assert result.check_failures == {r.id: r.failures for r in reports}
    assert result.attempted == sum(r.trials for r in reports)


def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    registry_ids = [c.id for c in IDENT.REGISTRY]
    units = harness.layer_metric_units(registry_ids)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == units
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["setup_s", "norm_wall_s", "peak_rss_mb"]


def test_traced_counts_repeat_exactly():
    checks = small_plan()
    first, second = (harness.traced_metrics(*traced_pass(checks)) for _ in range(2))
    exact = [
        name
        for name in first
        if name.endswith((".calls", ".max_bits"))
        or name in ("identities.residuals.count", "identities.residuals.empty_trials")
    ]
    assert "scalar.sample_point.calls" in exact
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    for layer_fn in (
        "scalar.qpoch.calls",
        "askey_wilson.aw_moment.calls",
        "series.phi_series.calls",
        "series.phi_term.calls",
        "linalg.det_fraction_free.calls",
        "linalg.pfaffian_expansion.calls",
    ):
        assert first[layer_fn] > 0, layer_fn
    assert first["identities.build.max_bits"] > 0
    assert first["identities.closed_form.max_bits"] > 0
    assert first["identities.residuals.empty_trials"] == 0


def test_self_times_fit_in_traced_wall():
    result, tracer = traced_pass(small_plan())
    self_total = sum(s.self_s for s in tracer.stats().values())
    assert 0 < self_total <= result.wall_s


def test_tracer_wraps_every_binding_and_restores():
    from qident import linalg, scalar

    def snapshot():
        return {
            (name, attr): obj
            for name, module in sys.modules.items()
            if name == "qident" or name.startswith("qident.")
            for attr, obj in vars(module).items()
        }

    before = snapshot()
    original = linalg.det_fraction_free
    with Tracer():
        assert IDENT.det_fraction_free is linalg.det_fraction_free is QI.det_fraction_free
        assert IDENT.det_fraction_free is not original
        assert IDENT.qpoch is scalar.qpoch is not before[("qident.scalar", "qpoch")]
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracing_changes_no_result(monkeypatch):
    checks = small_plan()
    assert harness.run_pass(QI, checks, 2, 0).check_failures == traced_pass(checks)[0].check_failures
    # and with a failing identity in the plan
    monkeypatch.setattr(IDENT, "rhs_hankel", lambda n, p: Fraction(1))
    checks = small_plan(("little_qjacobi_hankel", "gamma_pfaffian"))
    untraced = harness.run_pass(QI, checks, 2, 0)
    assert untraced.check_failures == traced_pass(checks)[0].check_failures
    assert untraced.check_failures["little_qjacobi_hankel"] == 2


def test_norm_wall_s_is_call_time_at_reference_speed():
    checks = small_plan(("gram_det", "gamma_pfaffian"))
    result = harness.run_pass(QI, checks, 1, 0, reference=True)
    assert len(result.ref_s) == len(checks) + 1
    result.ref_s = [harness.REF_S] * len(result.ref_s)
    assert harness.norm_wall_s([result]) == pytest.approx(sum(result.check_s.values()))
    # a machine twice as slow in the reference samples halves the figure
    result.ref_s = [2 * harness.REF_S] * len(result.ref_s)
    assert harness.norm_wall_s([result]) == pytest.approx(sum(result.check_s.values()) / 2)


def test_broken_closed_form_drives_failed_share_up(monkeypatch):
    real = IDENT.rhs_pfaffian
    monkeypatch.setattr(IDENT, "rhs_pfaffian", lambda m, a, b, q: real(m, a, b, q) + 1)
    result = harness.run_pass(QI, small_plan(("pfaffian_eval",)), 2, 0)
    assert result.failed / result.attempted > 0


def _custom_check(run_fn):
    return IDENT.IdentityCheck("custom", "test", ("q",), IDENT.Sizes(), run_fn)


def test_vacuous_pass_counts_as_failure():
    result = harness.run_pass(QI, [(_custom_check(lambda pt, sizes: []), IDENT.Sizes())], 3, 0)
    assert result.gate.empty_trials == 3
    assert result.failed == result.attempted == 3


def test_exception_counts_as_failure():
    def crash(pt, sizes):
        raise KeyError("boom")

    result = harness.run_pass(QI, [(_custom_check(crash), IDENT.Sizes())], 3, 0)
    assert result.failed == 3 and result.errors


def test_bits_of():
    assert bits_of(Fraction(-5, 3)) == 5
    assert bits_of((Fraction(1), Fraction(255, 2))) == 10
    assert bits_of(QI.Matrix(1, 2, (Fraction(1), Fraction(7, 8)))) == 7


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(monkeypatch, capsys, trace):
    tiny = harness.Workload("linalg_large", ("andrews_qwatson", "gram_det"), trials=1)
    monkeypatch.setitem(harness.WORKLOADS, "linalg_large", tiny)
    args = ["--workload", "linalg_large", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end"] if trace == 0 else BENCHMARK["per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in harness.ROOT.joinpath("bench").glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite_default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
