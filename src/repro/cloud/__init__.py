"""Google Cloud cost modeling and configuration optimization (Section VI).

- :mod:`repro.cloud.disks` — persistent-disk models: virtual disks whose
  throughput and IOPS scale with provisioned size up to hard caps, so the
  effective bandwidth at a request size is
  ``min(throughput_limit, iops_limit * request_size)``.
- :mod:`repro.cloud.instance` — machine types and their hourly prices.
- :mod:`repro.cloud.pricing` — Table V disk prices and the cost function
  ``Cost = f(P, DiskTypes, DiskSize_HDFS, DiskSize_local, Time)``.
- :mod:`repro.cloud.optimizer` — exhaustive grid search (one array-kernel
  pass over the whole grid) plus coordinate descent over the
  configuration space, using the Doppio model for ``Time``.
- :mod:`repro.cloud.recommendations` — the R1 (Apache Spark) and R2
  (Cloudera) reference provisioning rules the paper compares against.
"""

from repro.cloud.disks import (
    PersistentDiskSpec,
    PD_STANDARD,
    PD_SSD,
    make_persistent_disk,
)
from repro.cloud.instance import MachineType, N1_STANDARD, machine_for_vcpus
from repro.cloud.pricing import (
    DISK_PRICE_PER_GB_MONTH,
    CloudConfiguration,
    disk_cost_per_hour,
    configuration_cost,
)
from repro.cloud.optimizer import (
    CostOptimizer,
    EvaluatedConfiguration,
    OptimizationResult,
)
from repro.cloud.recommendations import (
    r1_spark_recommendation,
    r2_cloudera_recommendation,
)

__all__ = [
    "PersistentDiskSpec",
    "PD_STANDARD",
    "PD_SSD",
    "make_persistent_disk",
    "MachineType",
    "N1_STANDARD",
    "machine_for_vcpus",
    "DISK_PRICE_PER_GB_MONTH",
    "CloudConfiguration",
    "disk_cost_per_hour",
    "configuration_cost",
    "CostOptimizer",
    "EvaluatedConfiguration",
    "OptimizationResult",
    "r1_spark_recommendation",
    "r2_cloudera_recommendation",
]
