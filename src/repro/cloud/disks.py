"""Google Cloud persistent-disk performance model.

Persistent disks are network-attached and virtualized: their performance
is set by *provisioned limits* that scale linearly with the disk's size up
to hard caps (the GCP "Storage Options" datasheet the paper cites).  For a
disk of ``S`` GB the effective bandwidth at request size ``rs`` is::

    BW(rs) = min(throughput_per_gb * S  (capped),
                 iops_per_gb * S (capped) * rs)

Small-request workloads (Spark shuffle read) hit the IOPS term; streaming
workloads hit the throughput term.  This reproduces Fig. 14's shape:
GATK4's runtime keeps dropping as the local pd-standard disk grows —
because shuffle-read IOPS grow with size — until the stage crosses into
its compute-bound regime (~2 TB), after which the curve is flat.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bandwidth import EffectiveBandwidthTable
from repro.errors import ConfigurationError
from repro.storage.device import StorageDevice
from repro.units import GB, KB, MB

#: Request sizes anchored in every virtual-disk bandwidth table.
_ANCHOR_SIZES = (
    4 * KB,
    16 * KB,
    30 * KB,
    64 * KB,
    128 * KB,
    512 * KB,
    1 * MB,
    4 * MB,
    16 * MB,
    128 * MB,
    512 * MB,
)


@dataclass(frozen=True)
class PersistentDiskSpec:
    """Provisioned-performance rules for one disk type.

    Rates are per provisioned GB; caps are absolute.  Values follow the
    2017 GCP datasheet for ``pd-standard`` and ``pd-ssd`` attached to
    16-vCPU instances.
    """

    kind: str
    read_throughput_per_gb: float  # bytes/s per GB
    read_throughput_cap: float  # bytes/s
    write_throughput_per_gb: float
    write_throughput_cap: float
    read_iops_per_gb: float
    read_iops_cap: float
    write_iops_per_gb: float
    write_iops_cap: float

    def read_throughput_limit(self, size_gb: float) -> float:
        """Sustained read bytes/s for a disk of ``size_gb``."""
        return min(self.read_throughput_per_gb * size_gb, self.read_throughput_cap)

    def write_throughput_limit(self, size_gb: float) -> float:
        """Sustained write bytes/s for a disk of ``size_gb``."""
        return min(self.write_throughput_per_gb * size_gb, self.write_throughput_cap)

    def read_iops_limit(self, size_gb: float) -> float:
        """Read operations/s for a disk of ``size_gb``."""
        return min(self.read_iops_per_gb * size_gb, self.read_iops_cap)

    def write_iops_limit(self, size_gb: float) -> float:
        """Write operations/s for a disk of ``size_gb``."""
        return min(self.write_iops_per_gb * size_gb, self.write_iops_cap)

    def read_bandwidth(self, size_gb: float, request_size: float) -> float:
        """Effective read bytes/s at one request size."""
        return min(
            self.read_throughput_limit(size_gb),
            self.read_iops_limit(size_gb) * request_size,
        )

    def write_bandwidth(self, size_gb: float, request_size: float) -> float:
        """Effective write bytes/s at one request size."""
        return min(
            self.write_throughput_limit(size_gb),
            self.write_iops_limit(size_gb) * request_size,
        )


#: Magnetic persistent disk ("Standard provisioned space" in Table V).
PD_STANDARD = PersistentDiskSpec(
    kind="pd-standard",
    read_throughput_per_gb=0.12 * MB,
    read_throughput_cap=180 * MB,
    write_throughput_per_gb=0.12 * MB,
    write_throughput_cap=120 * MB,
    read_iops_per_gb=0.75,
    read_iops_cap=3000.0,
    write_iops_per_gb=1.5,
    write_iops_cap=15000.0,
)

#: SSD persistent disk ("SSD provisioned space" in Table V).
PD_SSD = PersistentDiskSpec(
    kind="pd-ssd",
    read_throughput_per_gb=0.48 * MB,
    read_throughput_cap=400 * MB,
    write_throughput_per_gb=0.48 * MB,
    write_throughput_cap=400 * MB,
    read_iops_per_gb=30.0,
    read_iops_cap=25000.0,
    write_iops_per_gb=30.0,
    write_iops_cap=25000.0,
)

SPEC_BY_KIND = {PD_STANDARD.kind: PD_STANDARD, PD_SSD.kind: PD_SSD}


def make_persistent_disk(
    kind: str, size_gb: float, name: str | None = None
) -> StorageDevice:
    """Build a virtual-disk :class:`~repro.storage.device.StorageDevice`.

    ``kind`` is ``"pd-standard"`` or ``"pd-ssd"``; ``size_gb`` is the
    provisioned size (which also determines the monthly price).
    """
    try:
        spec = SPEC_BY_KIND[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown persistent disk kind {kind!r};"
            f" expected one of {sorted(SPEC_BY_KIND)}"
        ) from None
    if size_gb <= 0:
        raise ConfigurationError(f"disk size must be positive, got {size_gb} GB")
    label = name or f"{kind}-{size_gb:.0f}GB"
    read_table = EffectiveBandwidthTable(
        [(rs, spec.read_bandwidth(size_gb, rs)) for rs in _ANCHOR_SIZES],
        name=f"{label}-read",
    )
    write_table = EffectiveBandwidthTable(
        [(rs, spec.write_bandwidth(size_gb, rs)) for rs in _ANCHOR_SIZES],
        name=f"{label}-write",
    )
    return StorageDevice(
        name=label,
        kind=kind,
        capacity_bytes=size_gb * GB,
        read_table=read_table,
        write_table=write_table,
    )
