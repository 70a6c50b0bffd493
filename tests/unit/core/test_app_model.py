"""Unit tests for the application model (sum of stages)."""

import pytest

from repro.core.app_model import ApplicationModel
from repro.core.stage_model import StageModel
from repro.core.variables import StageModelVariables
from repro.errors import ModelError


def stage(name, num_tasks=100, t_avg=2.0, delta=1.0):
    return StageModel(
        StageModelVariables(
            name=name, num_tasks=num_tasks, t_avg=t_avg, delta_scale=delta
        )
    )


@pytest.fixture()
def app():
    return ApplicationModel("app", [stage("a"), stage("b", t_avg=4.0)])


class TestConstruction:
    def test_requires_stages(self):
        with pytest.raises(ModelError):
            ApplicationModel("empty", [])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ModelError):
            ApplicationModel("dup", [stage("x"), stage("x")])

    def test_stage_lookup(self, app):
        assert app.stage("a").name == "a"
        with pytest.raises(ModelError):
            app.stage("missing")

    def test_repr_lists_stages(self, app):
        assert "a" in repr(app) and "b" in repr(app)


class TestPrediction:
    def test_t_app_is_sum_of_stages(self, app):
        prediction = app.predict(2, 4)
        assert prediction.t_app == pytest.approx(
            sum(s.t_stage for s in prediction.stages)
        )

    def test_runtime_shortcut(self, app):
        assert app.runtime(2, 4) == pytest.approx(app.predict(2, 4).t_app)

    def test_stage_lookup_on_prediction(self, app):
        prediction = app.predict(2, 4)
        assert prediction.stage("b").stage_name == "b"
        with pytest.raises(ModelError):
            prediction.stage("zzz")

    def test_bottleneck_stage(self, app):
        prediction = app.predict(2, 4)
        assert prediction.bottleneck_stage.stage_name == "b"
