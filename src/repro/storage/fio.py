"""A fio-style microbenchmark over device models (reproduces Fig. 5).

The paper uses ``fio`` to measure IOPS and effective bandwidth at a sweep
of read block sizes on both devices (Section III-C1).  Against our device
models the "measurement" is a direct query of the effective-bandwidth
curves, optionally with several concurrent jobs sharing the device's
bandwidth exactly the way fio's ``numjobs`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resources.resource import DeviceResource
from repro.resources.stream import SharedStream
from repro.storage.device import StorageDevice
from repro.units import KB, MB

#: The block-size sweep used for Fig. 5 (4 KB ... 128 MB).
DEFAULT_BLOCK_SIZES: tuple[float, ...] = (
    4 * KB,
    8 * KB,
    16 * KB,
    30 * KB,
    64 * KB,
    128 * KB,
    256 * KB,
    512 * KB,
    1 * MB,
    4 * MB,
    16 * MB,
    64 * MB,
    128 * MB,
)


@dataclass(frozen=True)
class FioResult:
    """One row of a fio sweep: block size → bandwidth and IOPS."""

    device_name: str
    block_size: float
    is_write: bool
    bandwidth: float
    iops: float


def run_fio_point(
    device: StorageDevice,
    block_size: float,
    is_write: bool = False,
    num_jobs: int = 1,
) -> FioResult:
    """Measure one (device, block size) point, like a single fio job spec.

    With ``num_jobs > 1`` the aggregate bandwidth is obtained by attaching
    that many uncapped streams to the device direction's
    :class:`~repro.resources.resource.DeviceResource` and summing their
    allocated rates — which, by water-filling, equals the device's
    effective bandwidth at the block size.
    """
    resource = DeviceResource(device, is_write)
    streams = [
        SharedStream(remaining_bytes=1.0, request_size=block_size)
        for _ in range(max(1, num_jobs))
    ]
    for stream in streams:
        resource.attach(stream)
    aggregate = sum(stream.rate for stream in streams)
    for stream in streams:
        resource.detach(stream)
    return FioResult(
        device_name=device.name,
        block_size=block_size,
        is_write=is_write,
        bandwidth=aggregate,
        iops=aggregate / block_size,
    )


def run_fio_sweep(
    device: StorageDevice,
    block_sizes: tuple[float, ...] = DEFAULT_BLOCK_SIZES,
    is_write: bool = False,
    num_jobs: int = 1,
) -> list[FioResult]:
    """Sweep block sizes on one device — one Fig. 5 curve."""
    return [
        run_fio_point(device, size, is_write=is_write, num_jobs=num_jobs)
        for size in block_sizes
    ]
