"""Storage substrate: devices, filesystems, and measurement tools.

The paper's testbed had physical disks (Table I), HDFS for input/output
files, and a Spark-local directory for shuffle and persisted RDDs.  This
subpackage reproduces each piece:

- :mod:`repro.storage.device` — HDD/SSD models whose effective bandwidth
  depends on the request size, anchored to the paper's fio measurements.
- :mod:`repro.storage.fio` — a fio-style microbenchmark producing Fig. 5.
- :mod:`repro.storage.iostat` — request-size statistics (``avgrq-sz``).
- :mod:`repro.storage.hdfs` — HDFS files, 128 MB blocks, replication.
- :mod:`repro.storage.local` — the Spark-local directory for shuffle and
  persisted RDD files.

Contention when several cores hit the same device (the mechanism behind
``b = BW / T``) is :class:`repro.resources.DeviceResource`'s water-filling,
one resource per device direction.
"""

from repro.storage.device import (
    StorageDevice,
    make_hdd,
    make_ssd,
    HDD_READ_ANCHORS,
    HDD_WRITE_ANCHORS,
    SSD_READ_ANCHORS,
    SSD_WRITE_ANCHORS,
)
from repro.storage.fio import FioResult, run_fio_sweep
from repro.storage.iostat import IostatCollector, IostatSample
from repro.storage.hdfs import Hdfs, HdfsFile
from repro.storage.local import SparkLocalDir, LocalFile

__all__ = [
    "StorageDevice",
    "make_hdd",
    "make_ssd",
    "HDD_READ_ANCHORS",
    "HDD_WRITE_ANCHORS",
    "SSD_READ_ANCHORS",
    "SSD_WRITE_ANCHORS",
    "FioResult",
    "run_fio_sweep",
    "IostatCollector",
    "IostatSample",
    "Hdfs",
    "HdfsFile",
    "SparkLocalDir",
    "LocalFile",
]
