"""Hostile mix plans: the ``simulate --mix`` parser never crashes.

Each example writes a hypothesis-generated JSON document to a file and
hands it to :func:`repro.cli._load_mix_plan`, which must either return
``(policy, jobs)`` or raise :class:`~repro.errors.ConfigurationError`
(exit 2).  Every job it returns must then survive
:func:`~repro.workloads.base.scale_workload_volume`: the scaled spec is
finite everywhere, or the scaling raises
:class:`~repro.errors.WorkloadError` (exit 2) — never ``inf`` bytes that
would print as ``Infinity`` in the ``--json`` payload.

Two kinds of document are drawn: arbitrary JSON, and plan-shaped objects
(``policy`` plus a ``jobs`` list) whose fields take scalars, lists,
objects, huge floats and integers past the float range.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import WORKLOADS, _load_mix_plan
from repro.errors import ConfigurationError, WorkloadError
from repro.schedule.mix import MIX_POLICIES
from repro.workloads.base import WorkloadSpec, scale_workload_volume

from tests.properties.strategies import PROPERTY_SETTINGS, json_values

#: Volume scales: huge floats, integers past the float range, and a few
#: ordinary and tiny ones.
_SCALES = (
    st.floats(min_value=1e200, max_value=1.7e308)
    | st.sampled_from((1e300, -1e300, 1e-320, 2.0, 0.5))
    | st.integers(min_value=10**308, max_value=10**400)
)
_NAMES = st.sampled_from(sorted(WORKLOADS)) | st.sampled_from(MIX_POLICIES)

field_values = _NAMES | _SCALES | json_values


def _mostly(
    valid: st.SearchStrategy, hostile: st.SearchStrategy = field_values
) -> st.SearchStrategy:
    """Three draws in four from ``valid``, the rest from ``hostile``, so
    that plans get past the parser often enough to reach the scaling."""
    return st.integers(0, 3).flatmap(lambda k: hostile if k == 0 else valid)


job_entries = _mostly(
    st.fixed_dictionaries(
        {"workload": _mostly(st.sampled_from(sorted(WORKLOADS)))},
        optional={
            "arrival": _mostly(st.floats(min_value=0.0, max_value=60.0)),
            "volume_scale": _mostly(_SCALES),
            "name": _mostly(st.text(max_size=6)),
        },
    ),
    hostile=json_values,
)

plan_documents = st.fixed_dictionaries(
    {"jobs": st.lists(job_entries, min_size=1, max_size=2)},
    optional={"policy": _mostly(st.sampled_from(MIX_POLICIES))},
)


@pytest.fixture(scope="module")
def plan_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mix-plans") / "plan.json"


def _assert_finite(spec: WorkloadSpec) -> None:
    for stage in spec.stages:
        for group in stage.groups:
            values = [group.compute_seconds, group.gc_coeff]
            for channel in (*group.read_channels, *group.write_channels):
                values += [channel.bytes_per_task, channel.request_size]
                if channel.per_core_throughput is not None:
                    values.append(channel.per_core_throughput)
            assert all(math.isfinite(value) for value in values), (
                f"{spec.name} {stage.name}/{group.name}: {values}"
            )


def _check(plan_path, document) -> None:
    plan_path.write_text(json.dumps(document))
    try:
        policy, jobs = _load_mix_plan(str(plan_path))
    except ConfigurationError:
        return
    assert policy in MIX_POLICIES
    assert jobs
    for job in jobs:
        try:
            scaled = scale_workload_volume(job.spec, job.volume_scale)
        except WorkloadError:
            continue
        _assert_finite(scaled)


@given(document=json_values)
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_arbitrary_json_is_parsed_or_refused(plan_path, document):
    _check(plan_path, document)


@given(document=plan_documents)
@settings(max_examples=300, **PROPERTY_SETTINGS)
def test_plan_shaped_json_is_parsed_or_refused(plan_path, document):
    _check(plan_path, document)
