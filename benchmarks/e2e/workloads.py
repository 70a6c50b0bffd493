"""Inputs of the end-to-end benchmark's four workloads.

Pure definitions: nothing here imports ``repro``, so ``run.py``, the
round processes and the tests share one description of what each
workload runs.  Every seeded input is a function of the seed alone.

- ``sim-paper``: cold simulations at the paper's 10 slaves x 24 cores.
- ``plan-cold``: what ``repro optimize`` does, from profiling to R1/R2.
- ``sweep-cache``: what ``repro pipeline --cache FILE --workers 2`` does,
  cold and then warm from the file.
- ``service-mix``: a seeded what-if query stream against ``repro serve``.
"""

from __future__ import annotations

import bisect
import math
import random

# -- sim-paper ----------------------------------------------------------------

#: The paper's cluster shape (Table I): 10 slaves x 24 cores.
PAPER_SHAPE = (10, 24)

#: (app, HDFS disk, local disk): the paper's headline GATK4 run, a
#: one-shot ML job, and an iterative job whose repeats are simulated
#: once.  Their times differ several-fold (about 2.3 s, 0.5 s, 0.15 s on
#: a 2-CPU host), so the median operation is always the same one, and a
#: round is short enough for several to fit in a run.
SIM_PAPER_OPS = (
    ("gatk4", "ssd", "ssd"),
    ("svm", "ssd", "ssd"),
    ("lr-small", "ssd", "ssd"),
)


def sim_label(app: str, hdfs: str, local: str) -> str:
    return f"{app}@{hdfs}/{local}"


# -- plan-cold ----------------------------------------------------------------

#: Apps planned from scratch, as ``repro optimize --workload APP`` does:
#: an iterative ML job, a one-shot ML job and a graph job.  Profiling
#: (four sample runs at N=3) is nearly all of a plan's time: about 0.5 s,
#: 1.2 s and 1.6 s on a 2-CPU host, so a round is short enough for
#: several to fit in a run.
PLAN_APPS = ("lr-small", "svm", "triangle-count")
PLAN_NODES = 10
PLAN_VCPU_GRID = (4, 8, 16, 32)

# -- sweep-cache --------------------------------------------------------------

SWEEP_APPS = ("svm", "lr-small")
SWEEP_DISKS = ("ssd", "hdd")
SWEEP_NODES = (2, 4, 8)
SWEEP_CORES = (2, 4, 8)
#: Re-runs of the whole grid from the cache file, each with a fresh
#: ``ResultCache(path)``: the read side of the cache format.  They are
#: timed as one operation: a pass takes about 5 ms, and a shorter span
#: than these passes' second falls into single bursts of host noise.
WARM_PASSES = 200
#: Cells recomputed serially, with no cache, to check the grid's records.
SWEEP_CHECK_CELLS = 3


def sweep_run_indices(seed: int) -> tuple[int, int]:
    """Two run indices (task-skew realizations) drawn from the seed."""
    first, second = sorted(random.Random(seed).sample(range(10), 2))
    return (first, second)


def sweep_check_cells(seed: int) -> list[tuple[str, int, int, int]]:
    """``(app, N, P, run)`` cells to recompute serially, drawn from the seed."""
    cells = [
        (app, n, p, r)
        for app in SWEEP_APPS
        for n in SWEEP_NODES
        for p in SWEEP_CORES
        for r in sweep_run_indices(seed)
    ]
    return random.Random(seed + 1).sample(cells, SWEEP_CHECK_CELLS)


# -- service-mix --------------------------------------------------------------

SERVICE_APPS = ("svm", "lr-small")
SERVICE_VCPUS = (1, 2, 4, 8, 16, 32, 64)
SERVICE_DISK_KINDS = ("pd-standard", "pd-ssd")
#: Provisioned sizes.  The smallest, 100 GB, is above what either app
#: needs per node at 4 or more workers, so every generated predict query
#: is feasible and none is refused.
SERVICE_SIZES_GB = tuple(100.0 * k for k in range(1, 21))
SERVICE_NUM_WORKERS = tuple(range(4, 17))
#: Optimize-query vCPU grids.
SERVICE_GRIDS = (
    (4, 8, 16, 32), (8, 16, 32), (4, 16, 32), (4, 8, 32), (2, 4, 8, 16),
    (16, 32, 64),
)
#: Small simulate shapes ``(app, slaves, cores, hdfs, local)``; each is
#: computed once per server (about 0.1 s) and then answered from its LRU.
SERVICE_SIM_SHAPES = (
    ("lr-small", 2, 2, "ssd", "hdd"),
    ("lr-small", 3, 2, "ssd", "hdd"),
    ("lr-small", 4, 2, "ssd", "hdd"),
    ("lr-small", 2, 4, "ssd", "hdd"),
    ("lr-small", 3, 4, "ssd", "ssd"),
    ("lr-small", 4, 4, "ssd", "ssd"),
    ("lr-small", 2, 8, "hdd", "ssd"),
    ("lr-small", 3, 8, "hdd", "ssd"),
)
#: Zipf exponent of predict-query popularity.
SERVICE_ZIPF_S = 1.05
#: Queries one server answers per round.
SERVICE_QUERIES = 1500
#: Answers re-derived through library calls: (predict, optimize, simulate).
SERVICE_SAMPLE = (50, 5, 2)

_PREDICT_AXES = (
    SERVICE_APPS, SERVICE_VCPUS, SERVICE_DISK_KINDS, SERVICE_SIZES_GB,
    SERVICE_DISK_KINDS, SERVICE_SIZES_GB, SERVICE_NUM_WORKERS,
)
#: Size of the predict-configuration space (~291k).
PREDICT_SPACE = math.prod(len(axis) for axis in _PREDICT_AXES)


def _predict_query(index: int) -> dict:
    values = []
    for axis in reversed(_PREDICT_AXES):
        index, digit = divmod(index, len(axis))
        values.append(axis[digit])
    app, vcpus, hdfs_kind, hdfs_gb, local_kind, local_gb, workers = reversed(values)
    return {
        "kind": "predict", "workload": app, "vcpus": vcpus,
        "hdfs_kind": hdfs_kind, "hdfs_gb": hdfs_gb,
        "local_kind": local_kind, "local_gb": local_gb,
        "num_workers": workers,
    }


def _zipf_cdf(size: int, s: float) -> list[float]:
    total, cdf = 0.0, []
    for rank in range(1, size + 1):
        total += rank ** -s
        cdf.append(total)
    return [value / total for value in cdf]


def service_kind(position: int) -> str:
    """The query kind at a stream position: 1% simulate, ~9% optimize.

    Kinds sit at fixed positions so every seed sends the same mix.
    """
    if position % 100 == 50:
        return "simulate"
    if position % 11 == 5:
        return "optimize"
    return "predict"


def service_queries(seed: int, count: int = SERVICE_QUERIES) -> list[dict]:
    """The seeded query stream one service-mix server answers.

    Predict queries follow a Zipf popularity law over the whole
    configuration space, mapped through a seeded bijection so each seed
    favours different configurations.  Optimize and simulate queries
    cycle through seeded permutations of their distinct forms, so every
    seed computes the same number of each.
    """
    rng = random.Random(seed)
    stride = rng.randrange(1, PREDICT_SPACE)
    while math.gcd(stride, PREDICT_SPACE) != 1:
        stride = rng.randrange(1, PREDICT_SPACE)
    offset = rng.randrange(PREDICT_SPACE)
    cdf = _zipf_cdf(PREDICT_SPACE, SERVICE_ZIPF_S)
    optimizes = [
        {"kind": "optimize", "workload": app, "vcpu_grid": list(grid),
         "num_workers": workers}
        for app in SERVICE_APPS
        for grid in SERVICE_GRIDS
        for workers in SERVICE_NUM_WORKERS
    ]
    rng.shuffle(optimizes)
    simulates = [
        {"kind": "simulate", "workload": app, "slaves": slaves,
         "cores": cores, "hdfs": hdfs, "local": local}
        for app, slaves, cores, hdfs, local in SERVICE_SIM_SHAPES
    ]
    rng.shuffle(simulates)
    queries, n_opt, n_sim = [], 0, 0
    for position in range(count):
        kind = service_kind(position)
        if kind == "simulate":
            queries.append(simulates[n_sim % len(simulates)])
            n_sim += 1
        elif kind == "optimize":
            queries.append(optimizes[n_opt % len(optimizes)])
            n_opt += 1
        else:
            rank = min(bisect.bisect_left(cdf, rng.random()), PREDICT_SPACE - 1)
            queries.append(
                _predict_query((stride * rank + offset) % PREDICT_SPACE)
            )
    return queries


def service_sample(seed: int, queries: list[dict]) -> list[int]:
    """Positions of the answers re-derived through library calls.

    Distinct queries only, ``SERVICE_SAMPLE`` of each kind, drawn from
    the seed.
    """
    rng = random.Random(seed + 2)
    chosen = []
    for kind, wanted in zip(("predict", "optimize", "simulate"), SERVICE_SAMPLE):
        seen, positions = set(), []
        for position, query in enumerate(queries):
            key = repr(sorted(query.items()))
            if query["kind"] == kind and key not in seen:
                seen.add(key)
                positions.append(position)
        chosen += rng.sample(positions, min(wanted, len(positions)))
    return sorted(chosen)


# -- correctness --------------------------------------------------------------


def mismatches(answers: dict, expected: dict) -> list[str]:
    """Labels whose answer differs from the expected one, bit for bit.

    Floats are compared exactly: JSON keeps every digit of a float, so
    an answer read back from ``expected.json`` equals the one computed.
    A label missing from ``expected`` is a mismatch too.
    """
    return [
        f"{label}: got {answer!r}, expected {expected.get(label)!r}"
        for label, answer in answers.items()
        if expected.get(label) != answer
    ]
