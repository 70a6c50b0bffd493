"""The regression detector: bands, exact gates, thin history, scoping."""

from __future__ import annotations

import pytest

from repro.bench.gates import (
    GatePolicy,
    MetricGate,
    Verdict,
    evaluate_gate,
    evaluate_section,
    metric_value,
)

POLICY = GatePolicy(window=5, min_history=3)


def record(value, fingerprint="cpu2-py3.11", section="engine",
           metric="wall"):
    return {
        "fingerprint_key": fingerprint,
        "sections": {section: {metric: value}},
    }


def judge(gate, fresh, history, fingerprint="cpu2-py3.11"):
    return evaluate_gate(
        gate, "engine", {"wall": fresh}, history, fingerprint, POLICY
    )


class TestLowerBand:
    GATE = MetricGate("wall", "lower", warn_ratio=2.0, fail_ratio=4.0)
    HISTORY = [record(1.0) for _ in range(5)]  # median 1.0

    def test_within_band_passes(self):
        assert judge(self.GATE, 1.5, self.HISTORY).status == "pass"

    def test_at_warn_boundary_passes(self):
        # Strictly-greater comparison: exactly 2x the median is not a warn.
        assert judge(self.GATE, 2.0, self.HISTORY).status == "pass"

    def test_past_warn_warns(self):
        assert judge(self.GATE, 2.01, self.HISTORY).status == "warn"

    def test_at_fail_boundary_warns(self):
        assert judge(self.GATE, 4.0, self.HISTORY).status == "warn"

    def test_past_fail_fails(self):
        verdict = judge(self.GATE, 4.01, self.HISTORY)
        assert verdict.status == "fail"
        assert verdict.reference == 1.0

    def test_faster_is_always_fine(self):
        assert judge(self.GATE, 0.01, self.HISTORY).status == "pass"


class TestHigherBand:
    GATE = MetricGate("wall", "higher", warn_ratio=2.0, fail_ratio=4.0)
    HISTORY = [record(100.0) for _ in range(5)]

    def test_within_band_passes(self):
        assert judge(self.GATE, 60.0, self.HISTORY).status == "pass"

    def test_past_warn_warns(self):
        assert judge(self.GATE, 49.0, self.HISTORY).status == "warn"

    def test_past_fail_fails(self):
        assert judge(self.GATE, 24.0, self.HISTORY).status == "fail"

    def test_better_is_always_fine(self):
        assert judge(self.GATE, 1e6, self.HISTORY).status == "pass"


class TestThinHistory:
    GATE = MetricGate("wall", "lower")

    def test_no_history_passes(self):
        verdict = judge(self.GATE, 100.0, [])
        assert verdict.status == "pass"
        assert "thin history" in verdict.detail

    def test_below_min_history_passes(self):
        history = [record(1.0), record(1.0)]
        verdict = judge(self.GATE, 100.0, history)
        assert verdict.status == "pass"
        assert "absolute floors apply" in verdict.detail

    def test_min_history_activates_gating(self):
        history = [record(1.0) for _ in range(3)]
        assert judge(self.GATE, 100.0, history).status == "fail"


class TestFingerprintScoping:
    GATE = MetricGate("wall", "lower")

    def test_other_hosts_records_ignored(self):
        history = [record(0.1, fingerprint="cpu32-py3.11")
                   for _ in range(5)]
        # 4 seconds would fail against the 32-core host's 0.1s median,
        # but those records are another partition: thin history here.
        verdict = judge(self.GATE, 4.0, history,
                        fingerprint="cpu1-py3.11")
        assert verdict.status == "pass"
        assert "thin history" in verdict.detail

    def test_matching_host_gates(self):
        history = [record(0.1, fingerprint="cpu1-py3.11")
                   for _ in range(5)]
        verdict = judge(self.GATE, 4.0, history,
                        fingerprint="cpu1-py3.11")
        assert verdict.status == "fail"

    def test_unscoped_gate_sees_everything(self):
        gate = MetricGate("wall", "lower", fingerprint_scoped=False)
        history = [record(0.1, fingerprint="cpu32-py3.11")
                   for _ in range(5)]
        verdict = judge(gate, 4.0, history,
                        fingerprint="cpu1-py3.11")
        assert verdict.status == "fail"


class TestExactGate:
    GATE = MetricGate("wall", "exact", fingerprint_scoped=False)

    def test_no_history_passes(self):
        assert judge(self.GATE, 258.76, []).status == "pass"

    def test_match_passes(self):
        assert judge(self.GATE, 258.76, [record(258.76)]).status == "pass"

    def test_compares_against_most_recent(self):
        history = [record(1.0), record(258.76)]
        assert judge(self.GATE, 258.76, history).status == "pass"

    def test_mismatch_fails(self):
        verdict = judge(self.GATE, 258.77, [record(258.76)])
        assert verdict.status == "fail"
        assert "deterministic metric changed" in verdict.detail

    def test_tolerance_absorbs_float_noise(self):
        value = 258.7646272067465
        assert judge(self.GATE, value + 1e-12, [record(value)]).status == "pass"

    def test_lists_compare_elementwise(self):
        history = [record([1.0, 2.0, 3.0])]
        assert judge(self.GATE, [1.0, 2.0, 3.0], history).status == "pass"
        assert judge(self.GATE, [1.0, 2.0, 3.1], history).status == "fail"
        assert judge(self.GATE, [1.0, 2.0], history).status == "fail"

    def test_strings_compare_exactly(self):
        history = [record("n1-standard-16")]
        assert judge(self.GATE, "n1-standard-16", history).status == "pass"
        assert judge(self.GATE, "n1-standard-8", history).status == "fail"


def test_absent_metric_skips():
    gate = MetricGate("nope", "lower")
    verdict = evaluate_gate(gate, "engine", {"wall": 1.0}, [], None, POLICY)
    assert verdict.status == "skip"


def test_metric_value_dotted_paths():
    metrics = {"search": {"best": {"cost": 3.75}}, "flat": 1}
    assert metric_value(metrics, "search.best.cost") == 3.75
    assert metric_value(metrics, "flat") == 1
    assert metric_value(metrics, "search.missing") is None
    assert metric_value(metrics, "flat.deeper") is None


def test_evaluate_section_one_verdict_per_gate():
    gates = (
        MetricGate("wall", "lower"),
        MetricGate("rate", "higher"),
        MetricGate("missing", "lower"),
    )
    verdicts = evaluate_section(
        "engine", gates, {"wall": 1.0, "rate": 10.0}, [], "cpu1-x", POLICY
    )
    assert [v.metric for v in verdicts] == ["wall", "rate", "missing"]
    assert [v.status for v in verdicts] == ["pass", "pass", "skip"]


def test_gate_validation():
    with pytest.raises(ValueError):
        MetricGate("wall", "sideways")
    with pytest.raises(ValueError):
        MetricGate("wall", "lower", warn_ratio=3.0, fail_ratio=2.0)
    with pytest.raises(ValueError):
        MetricGate("wall", "lower", warn_ratio=1.0)


def test_verdict_rendering():
    verdict = Verdict("engine", "wall", "fail", 4.0, 1.0, "too slow")
    assert verdict.describe() == "[FAIL] engine.wall: too slow"
    assert verdict.to_dict()["status"] == "fail"
