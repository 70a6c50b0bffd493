"""Effective I/O bandwidth as a function of the request size.

Section III-C of the paper shows that the bandwidth a device delivers
depends strongly on the size of each I/O request: the measured HDD/SSD gap
is 181x at 4 KB requests, 32x at the 30 KB requests issued by Spark shuffle
read, and only 3.7x at the 128 MB HDFS block size.  Every part of Doppio
(the analytic model, the simulator, the cloud optimizer) therefore consults
an :class:`EffectiveBandwidthTable` instead of a single peak number.

A table is a set of ``(request_size, bandwidth)`` anchor points; queries
between anchors are interpolated linearly in log-log space, which matches
the smooth curves fio produces (Fig. 5b), and queries outside the anchored
range are clamped to the nearest endpoint.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from repro.errors import ModelError
from repro.units import fmt_bandwidth, fmt_bytes


class EffectiveBandwidthTable:
    """Piecewise log-log interpolated bandwidth curve ``BW(request_size)``.

    Parameters
    ----------
    points:
        Mapping or iterable of ``(request_size_bytes, bandwidth_bytes_per_s)``
        anchor pairs.  At least one point is required; all values must be
        positive.  Points are sorted internally.
    name:
        Optional label used in ``repr`` and reports (e.g. ``"hdd-read"``).
    """

    def __init__(
        self,
        points: Mapping[float, float] | Iterable[tuple[float, float]],
        name: str = "",
    ) -> None:
        if isinstance(points, Mapping):
            pairs = sorted(points.items())
        else:
            pairs = sorted(points)
        if not pairs:
            raise ModelError("a bandwidth table needs at least one anchor point")
        for size, bandwidth in pairs:
            if size <= 0 or bandwidth <= 0:
                raise ModelError(
                    f"bandwidth anchors must be positive, got ({size}, {bandwidth})"
                )
        sizes = [size for size, _ in pairs]
        if len(set(sizes)) != len(sizes):
            raise ModelError("duplicate request sizes in bandwidth table")
        self.name = name
        self._sizes = sizes
        self._bandwidths = [bw for _, bw in pairs]
        self._log_sizes = [math.log(size) for size in sizes]
        self._log_bws = [math.log(bw) for bw in self._bandwidths]

    @property
    def anchors(self) -> list[tuple[float, float]]:
        """The sorted ``(request_size, bandwidth)`` anchor points."""
        return list(zip(self._sizes, self._bandwidths))

    @property
    def min_request_size(self) -> float:
        """Smallest anchored request size, in bytes."""
        return self._sizes[0]

    @property
    def max_request_size(self) -> float:
        """Largest anchored request size, in bytes."""
        return self._sizes[-1]

    @property
    def peak_bandwidth(self) -> float:
        """Highest bandwidth anywhere on the curve, in bytes/s."""
        return max(self._bandwidths)

    def bandwidth(self, request_size: float) -> float:
        """Effective bandwidth (bytes/s) for I/O issued at ``request_size``.

        Outside the anchored range the curve is clamped: devices do not get
        faster below the smallest measured block nor above the largest.
        """
        if request_size <= 0:
            raise ModelError(f"request size must be positive, got {request_size}")
        if request_size <= self._sizes[0]:
            return self._bandwidths[0]
        if request_size >= self._sizes[-1]:
            return self._bandwidths[-1]
        # Find the surrounding anchors via linear scan; tables are tiny.
        for i in range(1, len(self._sizes)):
            if request_size <= self._sizes[i]:
                x0, x1 = self._log_sizes[i - 1], self._log_sizes[i]
                y0, y1 = self._log_bws[i - 1], self._log_bws[i]
                frac = (math.log(request_size) - x0) / (x1 - x0)
                return math.exp(y0 + frac * (y1 - y0))
        raise ModelError("unreachable: anchor search fell through")  # pragma: no cover

    def iops(self, request_size: float) -> float:
        """Operations per second at ``request_size`` (Fig. 5a's y-axis)."""
        return self.bandwidth(request_size) / request_size

    def transfer_time(self, total_bytes: float, request_size: float) -> float:
        """Seconds to move ``total_bytes`` issued at ``request_size``."""
        if total_bytes < 0:
            raise ModelError(f"cannot transfer negative bytes: {total_bytes}")
        if total_bytes == 0:
            return 0.0
        return total_bytes / self.bandwidth(request_size)

    def gap_versus(self, other: "EffectiveBandwidthTable", request_size: float) -> float:
        """Bandwidth ratio ``self / other`` at one request size.

        This is how the paper quotes device gaps, e.g. SSD/HDD = 32x at the
        30 KB shuffle-read block size.
        """
        return self.bandwidth(request_size) / other.bandwidth(request_size)

    def __repr__(self) -> str:
        label = self.name or "table"
        anchors = ", ".join(
            f"{fmt_bytes(size)}->{fmt_bandwidth(bw)}" for size, bw in self.anchors
        )
        return f"EffectiveBandwidthTable({label}: {anchors})"
