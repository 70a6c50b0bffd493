"""Unit tests for Equation 1 (the per-stage model)."""

import pytest

from repro.core.stage_model import StageModel, StagePrediction
from repro.core.variables import IoChannel, StageModelVariables
from repro.errors import ModelError
from repro.units import GB, KB, MB


def make_variables(**overrides):
    defaults = dict(
        name="BR",
        num_tasks=12000,
        t_avg=9.0,
        delta_scale=5.0,
        channels=(
            IoChannel(
                kind="shuffle_read",
                total_bytes=334 * GB,
                request_size=30 * KB,
                bandwidth=15 * MB,
                is_write=False,
                device="local",
            ),
        ),
        delta_read=10.0,
    )
    defaults.update(overrides)
    return StageModelVariables(**defaults)


class TestTerms:
    def test_t_scale_formula(self):
        model = StageModel(make_variables())
        # M/(N*P) * t_avg + delta = 12000/(10*12)*9 + 5
        assert model.t_scale(10, 12) == pytest.approx(12000 / 120 * 9 + 5)

    def test_t_read_limit_formula(self):
        model = StageModel(make_variables())
        expected = 334 * GB / (10 * 15 * MB) + 9.0 + 10.0
        assert model.t_read_limit(10) == pytest.approx(expected)

    def test_t_write_limit_zero_without_writes(self):
        model = StageModel(make_variables())
        assert model.t_write_limit(10) == 0.0

    def test_t_read_limit_zero_without_reads(self):
        model = StageModel(make_variables(channels=(), delta_read=0.0))
        assert model.t_read_limit(10) == 0.0

    def test_negative_fitted_deltas_clamp_to_zero(self):
        # Regression: two-point calibration can fit delta_scale < 0; at
        # large N*P the extrapolated term went negative — a negative
        # predicted time that also stole the bottleneck label.
        model = StageModel(
            make_variables(num_tasks=4, t_avg=0.01, delta_scale=-5.0,
                           channels=(), delta_read=0.0)
        )
        assert model.t_scale(10, 24) == 0.0
        prediction = model.predict(10, 24)
        assert prediction.t_stage == 0.0
        assert prediction.bottleneck == "scale"

    def test_negative_delta_read_clamps_to_zero(self):
        model = StageModel(make_variables(delta_read=-1e9))
        assert model.t_read_limit(10) == 0.0

    def test_positive_terms_are_untouched_by_the_clamp(self):
        model = StageModel(make_variables())
        assert model.t_scale(10, 12) == 12000 / 120 * 9 + 5

    def test_invalid_operating_point(self):
        model = StageModel(make_variables())
        with pytest.raises(ModelError):
            model.t_scale(0, 12)
        with pytest.raises(ModelError):
            model.t_scale(10, 0)
        with pytest.raises(ModelError):
            model.t_read_limit(-1)


class TestMaxSelection:
    def test_scale_bound_at_low_cores(self):
        model = StageModel(make_variables())
        prediction = model.predict(10, 1)
        assert prediction.bottleneck == "scale"
        assert not prediction.io_bound
        assert prediction.t_stage == pytest.approx(prediction.t_scale)

    def test_io_bound_at_high_cores(self):
        model = StageModel(make_variables())
        prediction = model.predict(10, 36)
        assert prediction.bottleneck == "read"
        assert prediction.io_bound
        assert prediction.t_stage == pytest.approx(prediction.t_read_limit)

    def test_runtime_matches_prediction(self):
        model = StageModel(make_variables())
        assert model.runtime(10, 36) == pytest.approx(model.predict(10, 36).t_stage)

    def test_runtime_monotone_in_cores_until_saturation(self):
        model = StageModel(make_variables())
        times = [model.runtime(10, p) for p in (1, 2, 4, 8, 16, 32)]
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))

    def test_runtime_flat_past_saturation(self):
        model = StageModel(make_variables())
        saturation = model.saturation_cores(10)
        assert saturation is not None
        p_past = int(saturation) + 5
        assert model.runtime(10, p_past) == pytest.approx(
            model.runtime(10, p_past * 2)
        )

    def test_saturation_none_without_channels(self):
        model = StageModel(make_variables(channels=(), delta_read=0.0))
        assert model.saturation_cores(10) is None


def fast_shuffle_read(gc_coeff: float) -> StageModel:
    """The BR stage on one 480 MB/s shuffle-read channel."""
    channel = IoChannel(
        kind="shuffle_read",
        total_bytes=334 * GB,
        request_size=30 * KB,
        bandwidth=480 * MB,
        is_write=False,
        device="local",
    )
    return StageModel(make_variables(channels=(channel,), gc_coeff=gc_coeff))


class TestSaturationWithGc:
    def test_t_scale_meets_the_floor_at_saturation(self):
        model = fast_shuffle_read(gc_coeff=0.05)
        saturation = model.saturation_cores(10)
        floor = model.t_read_limit(10)
        assert model.t_scale(10, saturation) == pytest.approx(floor, rel=1e-9)
        # The GC term is P-independent: ignoring it put P* at ~127 cores.
        assert saturation > 400

    def test_without_gc_the_crossover_is_unchanged(self):
        model = fast_shuffle_read(gc_coeff=0.0)
        floor = model.t_read_limit(10)
        assert model.saturation_cores(10) == 12000 * 9.0 / (10 * (floor - 5.0))

    def test_none_when_gc_alone_reaches_the_floor(self):
        # M * gc / N = 12000 * 0.1 / 10 = 120 s, over the 90.25 s floor.
        model = fast_shuffle_read(gc_coeff=0.1)
        assert model.saturation_cores(10) is None


class TestStagePrediction:
    def test_bottleneck_write(self):
        prediction = StagePrediction(
            stage_name="s", nodes=1, cores_per_node=1,
            t_scale=10.0, t_read_limit=5.0, t_write_limit=20.0,
        )
        assert prediction.bottleneck == "write"
        assert prediction.io_bound
        assert prediction.t_stage == 20.0

    def test_repr_of_model(self):
        model = StageModel(make_variables())
        assert "BR" in repr(model)


class TestShuffleAnalysisNumbers:
    """Section III-C3: 334 GB / 3 nodes / 15 MB/s = 126 minutes."""

    def test_126_minutes_on_three_slaves(self):
        variables = make_variables(delta_scale=0.0, delta_read=0.0, t_avg=0.0)
        model = StageModel(variables)
        minutes = model.t_read_limit(3) / 60.0
        assert minutes == pytest.approx(334 * 1024 / 3 / 15 / 60, rel=1e-6)
        assert minutes == pytest.approx(127.0, abs=1.5)
