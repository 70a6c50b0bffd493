"""Property-based tests for the effective-bandwidth table."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import EffectiveBandwidthTable

from tests.properties.strategies import PROPERTY_SETTINGS

anchor_lists = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e9),
        st.floats(min_value=1.0, max_value=1e10),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda pair: pair[0],
)

request_sizes = st.floats(min_value=0.5, max_value=2e9)


@given(anchors=anchor_lists, request=request_sizes)
@settings(**PROPERTY_SETTINGS)
def test_bandwidth_within_anchor_envelope(anchors, request):
    """Interpolation never leaves the [min, max] anchor bandwidth range."""
    table = EffectiveBandwidthTable(anchors)
    bandwidths = [bw for _, bw in anchors]
    value = table.bandwidth(request)
    assert min(bandwidths) * (1 - 1e-9) <= value <= max(bandwidths) * (1 + 1e-9)


@given(anchors=anchor_lists, request=request_sizes)
@settings(**PROPERTY_SETTINGS)
def test_bandwidth_always_positive(anchors, request):
    table = EffectiveBandwidthTable(anchors)
    assert table.bandwidth(request) > 0


@given(anchors=anchor_lists)
@settings(**PROPERTY_SETTINGS)
def test_anchor_points_reproduced_exactly(anchors):
    table = EffectiveBandwidthTable(anchors)
    for size, bandwidth in anchors:
        assert math.isclose(table.bandwidth(size), bandwidth, rel_tol=1e-9)


@given(anchors=anchor_lists, a=request_sizes, b=request_sizes)
@settings(**PROPERTY_SETTINGS)
def test_monotone_when_anchors_monotone(anchors, a, b):
    """If anchors increase with size, so does the interpolated curve."""
    ordered = sorted(anchors)
    monotone = [
        (size, float(index + 1)) for index, (size, _) in enumerate(ordered)
    ]
    table = EffectiveBandwidthTable(monotone)
    low, high = min(a, b), max(a, b)
    assert table.bandwidth(low) <= table.bandwidth(high) * (1 + 1e-9)


@given(anchors=anchor_lists, request=request_sizes,
       total=st.floats(min_value=0.0, max_value=1e12))
@settings(max_examples=50, **PROPERTY_SETTINGS)
def test_transfer_time_linear_in_bytes(anchors, request, total):
    table = EffectiveBandwidthTable(anchors)
    single = table.transfer_time(total, request)
    double = table.transfer_time(2 * total, request)
    assert math.isclose(double, 2 * single, rel_tol=1e-9, abs_tol=1e-12)
