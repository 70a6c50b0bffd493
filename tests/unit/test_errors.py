"""Unit tests for the exception hierarchy."""

import pickle

import pytest

from repro import errors
from repro.parallel import TaskFailure
from repro.schedule.scheduler import SchedulingError

#: Error classes whose fields go beyond the message, built with them set.
STRUCTURED = {
    errors.StageFailedError: lambda: errors.StageFailedError(
        stage="s0", task_id=3, attempts=4, stage_attempts=2,
        reason="stream stalled",
    ),
    errors.ExecutionError: lambda: errors.ExecutionError(
        "grid failed",
        failures=(TaskFailure(
            index=2, item=(3, 4, 0), kind="timeout", attempts=3,
            error_type="TimeoutError", message="no result within 1s",
        ),),
    ),
    errors.AdmissionError: lambda: errors.AdmissionError(
        "queue full", queue_depth=9, queue_cap=8
    ),
}

#: Every error class ``repro.errors`` defines.
ERROR_CLASSES = sorted(
    (
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.DoppioError)
    ),
    key=lambda cls: cls.__name__,
)


class TestHierarchy:
    def test_all_derive_from_doppio_error(self):
        subclasses = [
            errors.ConfigurationError,
            errors.StorageError,
            errors.FileNotFoundInStoreError,
            errors.SimulationError,
            errors.SchedulerError,
            errors.ModelError,
            errors.ProfilingError,
            errors.OptimizationError,
            errors.WorkloadError,
            errors.ExecutionError,
            SchedulingError,
        ]
        for cls in subclasses:
            assert issubclass(cls, errors.DoppioError)

    def test_file_not_found_is_storage_error(self):
        assert issubclass(errors.FileNotFoundInStoreError, errors.StorageError)

    def test_catch_all_at_api_boundary(self):
        # A caller catching DoppioError sees every library failure.
        with pytest.raises(errors.DoppioError):
            raise errors.ProfilingError("boom")

    def test_messages_preserved(self):
        try:
            raise errors.ModelError("bandwidth must be positive")
        except errors.DoppioError as caught:
            assert "bandwidth" in str(caught)

    def test_stage_failed_is_a_simulation_error_with_structure(self):
        error = errors.StageFailedError(
            stage="s0", task_id=3, attempts=4, stage_attempts=2,
            reason="stream stalled",
        )
        assert isinstance(error, errors.SimulationError)
        assert error.stage == "s0" and error.task_id == 3
        assert "aborted" in str(error) and "stalled" in str(error)


class TestExitCodes:
    def test_config_class_maps_to_2(self):
        assert errors.exit_code_for(errors.ConfigurationError("x")) == 2
        assert errors.exit_code_for(errors.WorkloadError("x")) == 2

    def test_fault_class_maps_to_4(self):
        assert errors.exit_code_for(errors.FaultError("x")) == 4

    def test_execution_class_maps_to_5(self):
        assert errors.exit_code_for(errors.ExecutionError("x")) == 5

    def test_execution_error_carries_structured_failures(self):
        from repro.parallel import TaskFailure

        failure = TaskFailure(
            index=2, item=(3, 4, 0), kind="timeout", attempts=3,
            error_type="TimeoutError", message="no result within 1s",
        )
        error = errors.ExecutionError("grid failed", failures=(failure,))
        assert error.failures == (failure,)
        assert "timeout" in failure.describe()
        plain = errors.ExecutionError("no detail")
        assert plain.failures == ()

    def test_everything_else_maps_to_3(self):
        for cls in (
            errors.SimulationError,
            errors.StorageError,
            errors.ModelError,
            errors.ProfilingError,
            errors.OptimizationError,
        ):
            assert errors.exit_code_for(cls("x")) == 3
        stage_failed = errors.StageFailedError("s", 0, 1, 1, "r")
        assert errors.exit_code_for(stage_failed) == 3

    def test_service_class_maps_to_6(self):
        assert errors.exit_code_for(errors.ServiceError("x")) == 6
        admission = errors.AdmissionError("full", queue_depth=16, queue_cap=16)
        assert errors.exit_code_for(admission) == 6

    def test_query_error_is_a_config_problem_not_a_service_fault(self):
        # QueryError subclasses ServiceError, but a malformed query is
        # the caller's mistake: it must map to the config exit code.
        assert errors.exit_code_for(errors.QueryError("bad payload")) == 2

    def test_admission_error_carries_queue_structure(self):
        error = errors.AdmissionError("queue full", queue_depth=9, queue_cap=8)
        assert error.queue_depth == 9
        assert error.queue_cap == 8
        assert isinstance(error, errors.ServiceError)

    def test_constants_are_distinct(self):
        codes = {
            errors.EXIT_OK, errors.EXIT_CONFIG_ERROR,
            errors.EXIT_SIMULATION_ERROR, errors.EXIT_FAULT_ERROR,
            errors.EXIT_EXECUTION_ERROR, errors.EXIT_SERVICE_ERROR,
        }
        assert len(codes) == 6
        assert 1 not in codes  # reserved for unexpected crashes


class TestPickling:
    """Pool workers send errors home by pickle: every class must survive."""

    @pytest.mark.parametrize(
        "cls", ERROR_CLASSES, ids=lambda cls: cls.__name__
    )
    def test_round_trip_keeps_type_message_and_fields(self, cls):
        error = STRUCTURED.get(cls, lambda: cls("plain message"))()
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error)
        assert vars(copy) == vars(error)
