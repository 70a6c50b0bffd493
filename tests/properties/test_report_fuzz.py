"""Hostile profiling reports: ``--report`` fails only with a library error.

Each example writes a hypothesis-generated JSON document to a file and
runs the path ``predict --report`` and ``pipeline --report`` take:
:func:`repro.core.load_report`, then
:meth:`~repro.pipeline.sources.ReportSource.resolve` (the replayed spec)
and an Equation-1 prediction at ``(N, P) = (2, 2)`` on SSD HDFS and HDD
local disks.  Any step may refuse the report, but only with a
:class:`~repro.errors.DoppioError` (exit 2 or 3) — never another
exception, which the CLI would report as a crash (exit 1).

Two kinds of document are drawn: arbitrary JSON, and report-shaped
objects whose stage and channel fields take scalars, lists, objects,
booleans, non-finite floats and integers past the float range.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Predictor, load_report
from repro.errors import DoppioError
from repro.pipeline.sources import ReportSource
from repro.storage import make_hdd, make_ssd
from repro.workloads.base import CHANNEL_KINDS

from tests.properties.strategies import PROPERTY_SETTINGS, json_values

#: Numbers at the edges: non-finite floats, integers past the float
#: range, and huge, tiny, zero and negative values.
_EDGES = st.sampled_from(
    (float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 1e-300,
     0.0, -1.0, True, 10**400)
)
field_values = _EDGES | json_values


def _mostly(
    valid: st.SearchStrategy, hostile: st.SearchStrategy = field_values
) -> st.SearchStrategy:
    """Seven draws in eight from ``valid``, the rest from ``hostile``, so
    that reports of several fields get past the loader often enough to
    reach the replay and the model."""
    return st.integers(0, 7).flatmap(lambda k: hostile if k == 0 else valid)


_SECONDS = _mostly(st.floats(min_value=0.0, max_value=100.0))

channel_entries = _mostly(
    st.fixed_dictionaries(
        {
            "kind": _mostly(st.sampled_from(sorted(CHANNEL_KINDS))),
            "role": _mostly(st.sampled_from(("hdfs", "local"))),
            "total_bytes": _mostly(st.floats(min_value=0.0, max_value=1e12)),
            "request_size": _mostly(st.floats(min_value=1e3, max_value=1e7)),
            "is_write": _mostly(st.booleans()),
        }
    ),
    hostile=json_values,
)

stage_entries = _mostly(
    st.fixed_dictionaries(
        {
            "name": _mostly(st.text(max_size=4)),
            "num_tasks": _mostly(st.integers(min_value=1, max_value=500)),
            "t_avg": _SECONDS,
            "delta_scale": _mostly(st.floats(min_value=-10.0, max_value=10.0)),
            "delta_read": _SECONDS,
            "delta_write": _SECONDS,
            "fill_seconds": _SECONDS,
            "channels": st.lists(channel_entries, max_size=3),
        },
        optional={"gc_coeff": _mostly(st.floats(min_value=0.0, max_value=1.0))},
    ),
    hostile=json_values,
)

report_documents = st.fixed_dictionaries(
    {
        "format_version": _mostly(st.just(1)),
        "workload_name": _mostly(st.text(max_size=6)),
        "nodes": _mostly(st.integers(min_value=1, max_value=4)),
        "stages": st.lists(stage_entries, min_size=1, max_size=2),
    }
)


#: Finite everywhere, but ``t_avg / fill_seconds`` (the replay's stream
#: chunk count) overflows to inf.
_SUBNORMAL_FILL = {
    "format_version": 1,
    "workload_name": "w",
    "nodes": 2,
    "stages": [{
        "name": "s", "num_tasks": 4, "t_avg": 100.0, "delta_scale": 0.0,
        "delta_read": 0.0, "delta_write": 0.0, "fill_seconds": 5e-324,
        "channels": [],
    }],
}


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reports") / "report.json"


def _check(report_path, document) -> None:
    report_path.write_text(json.dumps(document))
    try:
        report = load_report(report_path)
        ReportSource(report).resolve()
        Predictor(report).model_for_devices(
            {"hdfs": make_ssd(), "local": make_hdd()}
        ).predict(2, 2)
    except DoppioError:
        return


@given(document=json_values)
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_arbitrary_json_is_loaded_or_refused(report_path, document):
    _check(report_path, document)


@given(document=report_documents)
@example(document=_SUBNORMAL_FILL)
@settings(max_examples=300, **PROPERTY_SETTINGS)
def test_report_shaped_json_predicts_or_is_refused(report_path, document):
    _check(report_path, document)
