"""Hostile fault plans: ``--fault-plan`` never crashes the loader or the engine.

Each example writes a hypothesis-generated JSON document to a file and
hands it to :func:`repro.faults.load_fault_plan`, which must either
return a :class:`~repro.faults.FaultPlan` or raise
:class:`~repro.errors.FaultError` (exit 4).  A plan that loads must then
compile: a :class:`~repro.simulator.engine.SimulationEngine` on two
nodes, with and without a network, is built with it without error.

Two kinds of document are drawn: arbitrary JSON, and plan-shaped
objects (``name`` plus a ``faults`` list) whose entries carry one fault
type's fields, each of which takes scalars, lists, objects, booleans,
non-finite floats and integers past the float range.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.cluster.network import NetworkModel
from repro.errors import FaultError
from repro.faults import load_fault_plan
from repro.simulator.engine import SimulationEngine

from tests.properties.strategies import PROPERTY_SETTINGS, json_values

#: Numbers at the edges: non-finite floats, integers past the float
#: range, booleans and fractional node indices.
_EDGES = st.sampled_from(
    (float("nan"), float("inf"), -float("inf"), 1e300, -1.0, 0.5, 1.5,
     True, False, 10**400)
)
field_values = _EDGES | json_values


def _mostly(
    valid: st.SearchStrategy, hostile: st.SearchStrategy = field_values
) -> st.SearchStrategy:
    """Seven draws in eight from ``valid``, the rest from ``hostile``, so
    that plans of several faults get past the parser often enough to
    reach the engine."""
    return st.integers(0, 7).flatmap(lambda k: hostile if k == 0 else valid)


_NODES = _mostly(st.integers(min_value=0, max_value=3))
_TIMES = _mostly(st.floats(min_value=0.0, max_value=60.0))
_FRACTIONS = _mostly(st.floats(min_value=0.05, max_value=1.0))


def _entry(tag: str, required: dict, optional: dict) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {"type": _mostly(st.just(tag)), **required}, optional=optional
    )


fault_entries = _mostly(
    _entry(
        "disk",
        {"factor": _FRACTIONS},
        {
            "start": _TIMES,
            "end": _TIMES,
            "node": _NODES,
            "role": _mostly(st.sampled_from(("hdfs", "local"))),
            "direction": _mostly(st.sampled_from(("read", "write"))),
        },
    )
    | _entry(
        "straggler",
        {"node": _NODES, "slowdown": _mostly(st.floats(1.0, 4.0))},
        {},
    )
    | _entry("node_failure", {"node": _NODES, "at_seconds": _TIMES}, {})
    | _entry(
        "nic_jitter",
        {"factor": _FRACTIONS, "period": _mostly(st.floats(0.5, 5.0))},
        {
            "duty": _mostly(st.floats(0.1, 0.9)),
            "phase": _TIMES,
            "node": _NODES,
        },
    ),
    hostile=json_values,
)

plan_documents = st.fixed_dictionaries(
    {"faults": st.lists(fault_entries, min_size=1, max_size=3)},
    optional={"name": _mostly(st.text(max_size=6))},
)


@pytest.fixture(scope="module")
def plan_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fault-plans") / "plan.json"


def _check(plan_path, document) -> None:
    plan_path.write_text(json.dumps(document))
    try:
        plan = load_fault_plan(plan_path)
    except FaultError:
        return
    cluster = make_paper_cluster(2, HYBRID_CONFIGS[0])
    SimulationEngine(cluster, 2, faults=plan)
    SimulationEngine(cluster, 2, network=NetworkModel.from_gbps(1), faults=plan)


@given(document=json_values)
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_arbitrary_json_is_loaded_or_refused(plan_path, document):
    _check(plan_path, document)


@given(document=plan_documents)
@settings(max_examples=300, **PROPERTY_SETTINGS)
def test_plan_shaped_json_is_loaded_and_compiles_or_is_refused(
    plan_path, document
):
    _check(plan_path, document)
