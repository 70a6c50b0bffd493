"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-workloads``
    Show the built-in workload models.
``fio --device {hdd,ssd}``
    Print the device's effective-bandwidth sweep (Fig. 5).
``profile --workload NAME [--nodes N]``
    Run the four-sample-run procedure and print the fitted constants.
``predict --workload NAME --slaves N --cores P --hdfs KIND --local KIND``
    Predict an application runtime on a target cluster.
``simulate WORKLOAD [--slaves N] [--cores P] [--network-gbps G]
[--fault-plan FILE] [--speculation] [--max-task-attempts K]
[--blacklist] [--json]``
    Run the discrete-event simulator and print per-stage makespans,
    bottlenecks, core/device utilization, and the iostat request-size
    summary; with ``--fault-plan`` the run is perturbed by the plan and
    each stage also reports its makespan impact vs. the clean run.  The
    resilience flags arm the simulated Spark recovery mechanisms
    (speculative execution, retry with backoff, executor blacklisting);
    combined with a fault plan the report compares the mitigated run
    against both the unmitigated and the clean baselines.
``simulate --mix mix.json [--slaves N] [--cores P] [...]``
    Multi-tenant mode: instead of one workload, run the mix plan's jobs
    together on one shared cluster under a FIFO or fair scheduler and
    print the interference report — per job, its waiting time, mixed
    runtime, turnaround, clean solo baseline, and slowdown factor, plus
    the cluster-wide device utilization over the mix.  The plan is JSON:
    ``{"policy": "fair", "jobs": [{"workload": NAME, "arrival": T,
    "volume_scale": S}, ...]}`` (see docs/MULTITENANT.md and
    ``examples/mixes/``).  ``--fault-plan`` composes with a mix;
    resilience flags do not.

Exit codes: 0 on success, 2 for configuration errors, 3 for simulation
or model errors (including resilience-budget exhaustion), 4 for
malformed fault plans, 5 for host execution failures (worker loss,
per-task timeout, quarantined tasks — see docs/EXECUTION.md); 1 stays
reserved for unexpected crashes.
``pipeline --workload NAME [...] [--json] [--cache FILE] [--workers K]
[--task-timeout S] [--task-retries K]``
    Run the full loop — simulate, profile, predict — and print exp vs
    model per stage with error rates (one experiment-pipeline run).
    ``--workers K`` fans the repeated runs across K worker processes
    (``0`` = auto-size to the CPUs); results are bit-identical to
    serial.  ``--task-timeout``/``--task-retries`` tune the supervised
    execution policy of a parallel run (per-cell wall-clock deadline
    and attempt budget; exhausted cells exit 5 with the completed ones
    checkpointed).
``optimize --workload NAME [--cluster-workers N] [--top K] [--json]``
    Search cloud configurations for the cheapest run (Section VI).
    ``--cluster-workers`` is the modeled cluster's node count ``N``.
    The whole feasible grid is scored exhaustively, in one pass of the
    array kernel (:mod:`repro.model.arrays`).  ``--top K`` prints the K
    cheapest feasible configurations instead of just the winner, and
    ``--json`` emits the search outcome as a machine-readable record.
``bench [--sections a,b] [--rounds N] [--check] [--skip-slow] [--json]
[--history FILE] [--output FILE] [--max-history N] [--list]``
    Run the registered benchmark sections (:mod:`repro.bench`).  A
    normal run appends one record to the ``BENCH_history.jsonl``
    trajectory and atomically refreshes the ``BENCH_simulator.json``
    latest snapshot; ``--check`` runs gate-only (nothing written,
    nonzero exit iff a section regresses beyond the noise band vs the
    rolling history or breaks an absolute floor).  ``--skip-slow``
    drops the slow sections so CI stays in budget, and ``--list``
    prints the registry with each section's gate specs (which metrics
    are band-gated vs history and which must stay exact).  ``--report``
    renders per-metric sparkline trajectories from the history file,
    partitioned by host fingerprint and labeled with git SHAs.
``serve [--host H] [--port P] [--workloads a,b] [--cache FILE] [--warm]
[--queue-cap N] [--lru-size N] [--batch-max N] [--batch-delay-ms MS]``
    Run the optimizer-as-a-service query engine behind a stdlib
    HTTP/JSON front: ``POST /query`` answers predict/simulate/optimize
    what-if queries through an LRU, the shared result cache, and a
    coalescing, micro-batching compute tier (see docs/SERVICE.md).
``loadgen [--url HOST:PORT] [--workload NAME] [--distinct N]
[--duplicates K] [--concurrency C] [--json]``
    Fire a deterministic what-if query mix at a running service (or an
    in-process engine when ``--url`` is omitted) and report throughput,
    latency percentiles, and the engine's coalescing counters.

Every command is a thin veneer over :mod:`repro.pipeline`: inputs become
workload sources and platforms, results are uniform run records, and a
``--cache`` file lets separate invocations share simulations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.analysis.report import render_table
from repro.cloud import (
    CostOptimizer,
    r1_spark_recommendation,
    r2_cloudera_recommendation,
)
from repro.cluster.network import NetworkModel
from repro.core import load_report, save_report
from repro.errors import ConfigurationError, DoppioError, exit_code_for
from repro.faults import FaultPlan, load_fault_plan
from repro.model.arrays import backend_name
from repro.parallel import ExecutionPolicy
from repro.pipeline import (
    ClusterPlatform,
    Experiment,
    ReportSource,
    ResultCache,
    SpecSource,
)
from repro.resilience import (
    BlacklistPolicy,
    ResiliencePolicy,
    RetryPolicy,
    SpeculationPolicy,
    merge_summaries,
)
from repro.schedule.mix import MIX_POLICIES, MixJob, canonical_jobs
from repro.schedule.scheduler import SchedulingError
from repro.storage.device import make_hdd, make_ssd
from repro.storage.fio import run_fio_sweep
from repro.units import MB, fmt_bytes, fmt_duration
from repro.workloads import (
    make_gatk4_workload,
    make_logistic_regression_workload,
    make_pagerank_workload,
    make_svm_workload,
    make_terasort_workload,
    make_triangle_count_workload,
)
from repro.workloads.base import WorkloadSpec, scale_workload_volume
from repro.workloads.gatk4_extended import make_extended_gatk4_workload
from repro.workloads.logistic_regression import LARGE_DATASET

#: Name -> workload factory.
WORKLOADS: dict[str, Callable[[], WorkloadSpec]] = {
    "gatk4": make_gatk4_workload,
    "gatk4-extended": make_extended_gatk4_workload,
    "lr-small": lambda: make_logistic_regression_workload(num_slaves=10),
    "lr-large": lambda: make_logistic_regression_workload(
        LARGE_DATASET, num_slaves=10
    ),
    "svm": make_svm_workload,
    "pagerank": make_pagerank_workload,
    "triangle-count": make_triangle_count_workload,
    "terasort": make_terasort_workload,
}


def _workload(name: str) -> WorkloadSpec:
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; available: {', '.join(sorted(WORKLOADS))}"
        ) from None


def _cache(args: argparse.Namespace) -> ResultCache:
    """A result cache, file-backed when ``--cache`` was given."""
    return ResultCache(getattr(args, "cache", None))


def _save_cache(cache: ResultCache) -> None:
    if cache.path is not None:
        cache.save()


def _cluster_platform(args: argparse.Namespace) -> ClusterPlatform:
    return ClusterPlatform(hdfs_kind=args.hdfs, local_kind=args.local)


def _network(args: argparse.Namespace) -> NetworkModel | None:
    if getattr(args, "network_gbps", None) is None:
        return None
    return NetworkModel.from_gbps(args.network_gbps)


def _resource_label(name: str) -> str:
    """Strip the node prefix: slave3-hdfs-ssd -> hdfs-ssd, w0:nic -> nic."""
    return re.sub(r"^(slave-?|w)\d+[-:]", "", name)


def _fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    path = getattr(args, "fault_plan", None)
    return load_fault_plan(path) if path is not None else None


def _resilience(args: argparse.Namespace) -> ResiliencePolicy | None:
    """A mitigation policy composed from the resilience flags (or None).

    ``None`` — no flag given — keeps the historical unmitigated engine,
    which is bit-identical to the pre-resilience simulator.
    """
    speculation = getattr(args, "speculation", False)
    attempts = getattr(args, "max_task_attempts", None)
    blacklist = getattr(args, "blacklist", False)
    if not speculation and attempts is None and not blacklist:
        return None
    retry = RetryPolicy() if attempts is None else RetryPolicy(
        max_task_attempts=attempts
    )
    return ResiliencePolicy(
        speculation=SpeculationPolicy() if speculation else None,
        retry=retry,
        blacklist=BlacklistPolicy() if blacklist else None,
    )


def _stage_bottleneck(stage) -> str:
    """The busiest resource over a measured stage.

    Compares core occupancy against each device/NIC direction's busy
    fraction (averaged across nodes) — the measurement-side analogue of
    the Eq.-1 ``max(t_scale, t_read, t_write)`` argmax.
    """
    best_label, best = "cores", stage.core_utilization
    per_class: dict[tuple[str, bool], list[float]] = {}
    for name, is_write, fraction in stage.device_utilizations:
        per_class.setdefault((_resource_label(name), is_write), []).append(fraction)
    for (label, is_write), fractions in sorted(per_class.items()):
        mean = sum(fractions) / len(fractions)
        if mean > best:
            best_label = f"{label}:{'write' if is_write else 'read'}"
            best = mean
    return best_label


def cmd_list_workloads(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        rows.append([name, len(workload.stages), workload.description])
    print(render_table("Built-in workloads", ["name", "stages", "description"],
                       rows))
    return 0


def cmd_fio(args: argparse.Namespace) -> int:
    device = make_hdd() if args.device == "hdd" else make_ssd()
    results = run_fio_sweep(device, is_write=args.write)
    rows = [
        [fmt_bytes(r.block_size), f"{r.bandwidth / MB:.1f}", f"{r.iops:.0f}"]
        for r in results
    ]
    direction = "write" if args.write else "read"
    print(render_table(
        f"fio sweep: {args.device} ({direction})",
        ["block size", "MB/s", "IOPS"], rows))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    workload = _workload(args.workload)
    print(f"profiling {workload.name} on {args.nodes} slaves"
          " (four sample runs)...")
    source = SpecSource(workload, profile_nodes=args.nodes, fit_gc=args.fit_gc)
    report = source.resolve(_cache(args)).report
    if args.output:
        save_report(report, args.output)
        print(f"report saved to {args.output}")
    rows = [
        [stage.name, stage.num_tasks, f"{stage.t_avg:.2f}",
         f"{stage.delta_scale:.2f}", f"{stage.delta_read:.2f}",
         f"{stage.delta_write:.2f}", f"{stage.gc_coeff:.2f}"]
        for stage in report.stages
    ]
    print(render_table(
        f"fitted Equation-1 constants for {workload.name}",
        ["stage", "M", "t_avg s", "d_scale", "d_read", "d_write", "gc"],
        rows))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    workload = _workload(args.workload)
    if args.report:
        source = ReportSource(load_report(args.report))
    else:
        source = SpecSource(workload, profile_nodes=args.profile_nodes)
    experiment = Experiment(source, _cluster_platform(args))
    prediction = experiment.predict(args.slaves, args.cores)
    rows = [
        [stage.stage_name, fmt_duration(stage.t_stage), stage.bottleneck]
        for stage in prediction.stages
    ]
    rows.append(["TOTAL", fmt_duration(prediction.t_app), ""])
    print(render_table(
        f"{workload.name} on {args.slaves} slaves x {args.cores} cores"
        f" (HDFS={args.hdfs}, local={args.local})",
        ["stage", "runtime", "bottleneck"], rows))
    return 0


def _load_mix_plan(path: str) -> tuple[str, list[MixJob]]:
    """Parse a mix-plan JSON file into (policy, jobs).

    Any shape problem — unreadable file, bad JSON, unknown workload or
    policy, negative arrival — is a :class:`ConfigurationError` (exit 2),
    matching how every other malformed CLI input is reported.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as error:
        raise ConfigurationError(
            f"cannot read mix plan {path}: {error}"
        ) from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"mix plan {path} is not valid JSON: {error}"
        ) from error
    if not isinstance(data, dict) or not isinstance(data.get("jobs"), list):
        raise ConfigurationError(
            f"mix plan {path} must be a JSON object with a 'jobs' list"
        )
    policy = data.get("policy", "fair")
    if policy not in MIX_POLICIES:
        raise ConfigurationError(
            f"mix plan {path}: unknown policy {policy!r};"
            f" expected one of {MIX_POLICIES}"
        )
    jobs: list[MixJob] = []
    for index, entry in enumerate(data["jobs"]):
        where = f"mix plan {path}: jobs[{index}]"
        if not isinstance(entry, dict) or "workload" not in entry:
            raise ConfigurationError(
                f"{where} must be an object with a 'workload' name"
            )
        unknown = set(entry) - {"workload", "arrival", "volume_scale", "name"}
        if unknown:
            raise ConfigurationError(
                f"{where} has unknown field(s) {sorted(unknown)}"
            )
        spec = _workload(entry["workload"])
        try:
            jobs.append(MixJob(
                spec=spec,
                arrival=float(entry.get("arrival", 0.0)),
                volume_scale=float(entry.get("volume_scale", 1.0)),
                name=entry.get("name"),
            ))
        except (TypeError, ValueError, SchedulingError) as error:
            raise ConfigurationError(f"{where}: {error}") from error
    if not jobs:
        raise ConfigurationError(f"mix plan {path} has no jobs")
    return policy, jobs


def _simulate_mix(args: argparse.Namespace) -> int:
    """The ``simulate --mix`` path: co-located jobs + interference report."""
    if _resilience(args) is not None:
        raise ConfigurationError(
            "resilience flags are not supported with --mix; mixes model"
            " the contention story (see docs/MULTITENANT.md)"
        )
    policy, jobs = _load_mix_plan(args.mix)
    network = _network(args)
    cache = _cache(args)
    plan = _fault_plan(args)
    platform = _cluster_platform(args)
    experiment = Experiment(
        jobs[0].spec, platform, cache=cache, network=network, faults=plan,
    )
    mix = experiment.measure_mix(
        jobs, policy=policy, nodes=args.slaves, cores_per_node=args.cores
    )
    # Clean solo baselines through the shared cache: one solo simulation
    # per distinct job, the denominator of each slowdown factor.
    solo_seconds: dict[str, float] = {}
    for name, job in canonical_jobs(jobs):
        child = Experiment(
            scale_workload_volume(job.spec, job.volume_scale),
            platform, cache=cache, network=network,
        )
        solo_seconds[name] = child.measure(
            args.slaves, args.cores
        ).total_seconds
    _save_cache(cache)

    def slowdown(timeline) -> float:
        solo = solo_seconds[timeline.name]
        return timeline.measurement.total_seconds / solo if solo > 0 else 1.0

    per_class: dict[tuple[str, bool], list[float]] = {}
    for name, is_write, fraction in mix.device_utilizations:
        per_class.setdefault((_resource_label(name), is_write), []).append(
            fraction
        )

    if args.json:
        payload = {
            "mix_plan": args.mix,
            "policy": mix.policy,
            "slaves": args.slaves,
            "cores_per_node": args.cores,
            "hdfs": args.hdfs,
            "local": args.local,
            "network_gbps": args.network_gbps,
            "fault_plan": plan.name if plan is not None else None,
            "makespan_seconds": mix.makespan,
            "jobs": [
                {
                    "name": timeline.name,
                    "arrival": timeline.arrival,
                    "volume_scale": timeline.volume_scale,
                    "waiting_seconds": timeline.waiting,
                    "runtime_seconds": timeline.measurement.total_seconds,
                    "turnaround_seconds": timeline.turnaround,
                    "solo_seconds": solo_seconds[timeline.name],
                    "slowdown": slowdown(timeline),
                    "stages": [
                        {
                            "name": stage.name,
                            "num_tasks": stage.num_tasks,
                            "makespan_seconds": stage.makespan,
                            "core_utilization": stage.core_utilization,
                        }
                        for stage in timeline.measurement.stages
                    ],
                }
                for timeline in mix.jobs
            ],
            "device_utilizations": [
                {
                    "resource": label,
                    "direction": "write" if is_write else "read",
                    "busy_fraction": sum(fractions) / len(fractions),
                }
                for (label, is_write), fractions in sorted(per_class.items())
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0

    rows = [
        [
            timeline.name,
            fmt_duration(timeline.arrival),
            fmt_duration(timeline.waiting),
            fmt_duration(timeline.measurement.total_seconds),
            fmt_duration(timeline.turnaround),
            fmt_duration(solo_seconds[timeline.name]),
            f"{slowdown(timeline):.2f}x",
        ]
        for timeline in mix.jobs
    ]
    wire = f", {args.network_gbps:g} Gb/s NIC" if network is not None else ""
    faulty = f", faults={plan.describe()}" if plan is not None else ""
    print(render_table(
        f"simulated mix of {len(mix.jobs)} jobs on {args.slaves} slaves x"
        f" {args.cores} cores ({mix.policy} scheduling, HDFS={args.hdfs},"
        f" local={args.local}{wire}{faulty})",
        ["job", "arrival", "waiting", "runtime", "turnaround", "solo",
         "slowdown"],
        rows))
    print(f"mix makespan: {fmt_duration(mix.makespan)}")
    if per_class:
        rows = [
            [label, "write" if is_write else "read",
             f"{sum(fractions) / len(fractions) * 100:.0f}%"]
            for (label, is_write), fractions in sorted(per_class.items())
        ]
        print(render_table(
            "device utilization (whole mix, mean across nodes)",
            ["resource", "dir", "busy"], rows))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.mix is not None:
        if args.workload is not None:
            raise ConfigurationError(
                "pass either a workload name or --mix, not both"
            )
        return _simulate_mix(args)
    if args.workload is None:
        raise ConfigurationError(
            "a workload name (or --mix FILE) is required"
        )
    workload = _workload(args.workload)
    network = _network(args)
    cache = _cache(args)
    plan = _fault_plan(args)
    policy = _resilience(args)
    experiment = Experiment(
        workload, _cluster_platform(args), cache=cache, network=network,
        faults=plan, resilience=policy,
    )
    app = experiment.measure(args.slaves, args.cores)
    # Under a fault plan, also measure the clean baseline so the report
    # can show the per-stage makespan impact.
    clean = (
        experiment.measure(args.slaves, args.cores, faults=None, resilience=None)
        if plan is not None else None
    )
    # With mitigations armed on a faulted run, the unmitigated faulted
    # run is the second baseline: it shows what the policy recovered.
    unmitigated = (
        experiment.measure(args.slaves, args.cores, resilience=None)
        if plan is not None and policy is not None else None
    )
    _save_cache(cache)
    summary = (
        merge_summaries(stage.resilience for stage in app.stages)
        if policy is not None else None
    )

    def impact(stage_index: int) -> float:
        faulted = app.stages[stage_index].makespan
        baseline = clean.stages[stage_index].makespan
        return faulted / baseline - 1.0 if baseline > 0 else 0.0

    # Busy-seconds-weighted utilization per resource direction, averaged
    # across nodes (slaveN-hdfs-ssd -> hdfs-ssd; slave-N:nic -> nic) and
    # aggregated over stages.
    busy: dict[tuple[str, bool], list[float]] = {}
    for stage in app.stages:
        per_class: dict[tuple[str, bool], list[float]] = {}
        for name, is_write, fraction in stage.device_utilizations:
            per_class.setdefault((_resource_label(name), is_write), []).append(
                fraction
            )
        for key, fractions in per_class.items():
            mean = sum(fractions) / len(fractions)
            busy.setdefault(key, []).append(mean * stage.makespan)

    totals: dict[tuple[str, bool], list[float]] = {}
    for stage in app.stages:
        for s in stage.iostat_samples:
            entry = totals.setdefault(
                (_resource_label(s.device_name), s.is_write), [0.0, 0.0]
            )
            entry[0] += s.total_bytes
            entry[1] += s.num_requests

    if args.json:
        payload = {
            "workload": workload.name,
            "slaves": args.slaves,
            "cores_per_node": args.cores,
            "hdfs": args.hdfs,
            "local": args.local,
            "network_gbps": args.network_gbps,
            "fault_plan": plan.name if plan is not None else None,
            "resilience_policy": (
                policy.to_dict() if policy is not None else None
            ),
            "total_seconds": app.total_seconds,
            **(
                {"unmitigated_total_seconds": unmitigated.total_seconds}
                if unmitigated is not None else {}
            ),
            **(
                {"resilience_summary": summary.to_dict()}
                if summary is not None else {}
            ),
            "stages": [
                {
                    "name": stage.name,
                    "num_tasks": stage.num_tasks,
                    "makespan_seconds": stage.makespan,
                    "core_utilization": stage.core_utilization,
                    "bottleneck": _stage_bottleneck(stage),
                    **(
                        {
                            "clean_makespan_seconds":
                                clean.stages[index].makespan,
                            "impact_fraction": impact(index),
                        }
                        if clean is not None else {}
                    ),
                    **(
                        {
                            "unmitigated_makespan_seconds":
                                unmitigated.stages[index].makespan,
                        }
                        if unmitigated is not None else {}
                    ),
                    **(
                        {
                            "resilience": (
                                stage.resilience.to_dict()
                                if stage.resilience is not None else None
                            ),
                        }
                        if policy is not None else {}
                    ),
                }
                for index, stage in enumerate(app.stages)
            ],
            "device_utilizations": [
                {
                    "resource": label,
                    "direction": "write" if is_write else "read",
                    "busy_fraction": sum(seconds) / app.total_seconds,
                }
                for (label, is_write), seconds in sorted(busy.items())
            ],
            "iostat": [
                {
                    "device": label,
                    "direction": "write" if is_write else "read",
                    "requests": requests,
                    "avg_request_bytes": total_bytes / requests,
                }
                for (label, is_write), (total_bytes, requests)
                in sorted(totals.items())
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0

    rows = []
    for index, stage in enumerate(app.stages):
        row = [stage.name, stage.num_tasks, fmt_duration(stage.makespan),
               f"{stage.core_utilization * 100:.0f}%",
               _stage_bottleneck(stage)]
        if clean is not None:
            row += [fmt_duration(clean.stages[index].makespan),
                    f"{impact(index) * 100:+.0f}%"]
        if policy is not None:
            row.append(
                stage.resilience.describe()
                if stage.resilience is not None else ""
            )
        rows.append(row)
    total_row = ["TOTAL", sum(s.num_tasks for s in app.stages),
                 fmt_duration(app.total_seconds), "", ""]
    headers = ["stage", "tasks", "makespan", "core util", "bottleneck"]
    if clean is not None:
        headers += ["clean", "impact"]
        total_impact = (
            app.total_seconds / clean.total_seconds - 1.0
            if clean.total_seconds > 0 else 0.0
        )
        total_row += [fmt_duration(clean.total_seconds),
                      f"{total_impact * 100:+.0f}%"]
    if policy is not None:
        headers.append("resilience")
        total_row.append(summary.describe() if summary.mitigated else "")
    rows.append(total_row)
    wire = f", {args.network_gbps:g} Gb/s NIC" if network is not None else ""
    faulty = f", faults={plan.describe()}" if plan is not None else ""
    mitigations = (
        f", resilience={policy.describe()}" if policy is not None else ""
    )
    print(render_table(
        f"simulated {workload.name} on {args.slaves} slaves x {args.cores}"
        f" cores (HDFS={args.hdfs}, local={args.local}{wire}{faulty}"
        f"{mitigations})",
        headers, rows))

    if unmitigated is not None and clean is not None:
        # The recovery headline: how much of the fault-induced slowdown
        # did the mitigations claw back?
        recovered = (
            unmitigated.total_seconds / app.total_seconds - 1.0
            if app.total_seconds > 0 else 0.0
        )
        overhead = (
            app.total_seconds / clean.total_seconds - 1.0
            if clean.total_seconds > 0 else 0.0
        )
        print(
            f"recovery: mitigated {fmt_duration(app.total_seconds)}"
            f" vs unmitigated {fmt_duration(unmitigated.total_seconds)}"
            f" ({recovered * 100:+.0f}% speedup)"
            f" vs clean {fmt_duration(clean.total_seconds)}"
            f" ({overhead * 100:+.0f}% residual impact)"
        )

    if busy:
        rows = [
            [label, "write" if is_write else "read",
             f"{sum(seconds) / app.total_seconds * 100:.0f}%"]
            for (label, is_write), seconds in sorted(busy.items())
        ]
        print(render_table(
            "device utilization (whole application, mean across nodes)",
            ["resource", "dir", "busy"], rows))

    if totals:
        rows = []
        for (label, is_write), (total_bytes, requests) in sorted(totals.items()):
            avg = total_bytes / requests
            rows.append([label, "write" if is_write else "read",
                         f"{requests:.0f}", fmt_bytes(avg),
                         f"{avg / 512:.0f}"])
        print(render_table("iostat request-size summary (all nodes)",
                           ["device", "dir", "requests", "avg req size",
                            "avgrq-sz"], rows))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    workload = _workload(args.workload)
    cache = _cache(args)
    if args.report:
        source = ReportSource(load_report(args.report))
    else:
        source = SpecSource(workload, profile_nodes=args.profile_nodes)
    policy = _resilience(args)
    experiment = Experiment(
        source, _cluster_platform(args), cache=cache, network=_network(args),
        faults=_fault_plan(args), resilience=policy,
    )
    results = experiment.run_repeated(
        args.slaves, args.cores, runs=args.runs, workers=args.workers,
        execution=_execution(args),
    )
    _save_cache(cache)
    first = results[0]

    if args.json:
        payload = {
            "experiment": experiment.describe(),
            "resilience_policy": (
                policy.to_dict() if policy is not None else None
            ),
            "cache": cache.stats(),
            "runs": [result.to_dict() for result in results],
        }
        print(json.dumps(payload, indent=2))
        return 0

    rows = []
    for stage in first.stages:
        measured = [r.stage(stage.name).measured_seconds for r in results]
        mean = sum(measured) / len(measured)
        rows.append([
            stage.name, stage.num_tasks, fmt_duration(mean),
            fmt_duration(stage.predicted_seconds),
            f"{abs(mean - stage.predicted_seconds) / mean * 100:.1f}%",
            stage.bottleneck,
        ])
    mean_total = sum(r.measured_seconds for r in results) / len(results)
    rows.append([
        "TOTAL", sum(s.num_tasks for s in first.stages),
        fmt_duration(mean_total), fmt_duration(first.predicted_seconds),
        f"{abs(mean_total - first.predicted_seconds) / mean_total * 100:.1f}%",
        "",
    ])
    wire = (
        f", {args.network_gbps:g} Gb/s NIC"
        if args.network_gbps is not None else ""
    )
    mitigations = (
        f", resilience={policy.describe()}" if policy is not None else ""
    )
    print(render_table(
        f"{experiment.describe()} at N={args.slaves}, P={args.cores}{wire}"
        f"{mitigations} ({args.runs} runs)",
        ["stage", "tasks", "exp", "model", "error", "bottleneck"], rows))
    print(f"cache: {cache.stats_summary()}")
    return 0


def _config_dict(config) -> dict:
    """A CloudConfiguration as a JSON-ready mapping."""
    return {
        "machine": config.machine.name,
        "vcpus": config.machine.vcpus,
        "num_workers": config.num_workers,
        "hdfs_disk_kind": config.hdfs_disk_kind,
        "hdfs_disk_gb": config.hdfs_disk_gb,
        "local_disk_kind": config.local_disk_kind,
        "local_disk_gb": config.local_disk_gb,
        "label": config.label(),
    }


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ConfigurationError("--top must be at least 1")
    workload = _workload(args.workload)
    if not args.json:
        print(f"profiling {workload.name}...")
    cache = _cache(args)
    experiment = Experiment(
        SpecSource(workload, profile_nodes=args.profile_nodes),
        ClusterPlatform(),
        cache=cache,
    )
    nodes = args.cluster_workers
    hdfs_gb, local_gb = CostOptimizer.capacity_requirements(
        workload, num_workers=nodes
    )
    optimizer = CostOptimizer(
        experiment.predictor, num_workers=nodes,
        min_hdfs_gb=hdfs_gb, min_local_gb=local_gb,
        cache=cache,
    )
    result = optimizer.grid_search(vcpu_grid=(4, 8, 16, 32))
    r1 = optimizer.evaluate(r1_spark_recommendation(num_workers=nodes))
    r2 = optimizer.evaluate(r2_cloudera_recommendation(num_workers=nodes))
    _save_cache(cache)
    # Stable sort on cost: ties keep grid order, so top[0] is exactly
    # the search's ``best``.
    top = sorted(result.evaluated, key=lambda e: e.cost_dollars)[: args.top]

    if args.json:
        payload = {
            "workload": workload.name,
            "cluster_workers": nodes,
            "backend": backend_name(),
            "num_evaluated": result.num_evaluated,
            "top": [
                {
                    "rank": rank,
                    "config": _config_dict(entry.config),
                    "runtime_seconds": entry.runtime_seconds,
                    "cost_dollars": entry.cost_dollars,
                }
                for rank, entry in enumerate(top, start=1)
            ],
            "references": {
                "r1_spark": {
                    "config": _config_dict(r1.config),
                    "runtime_seconds": r1.runtime_seconds,
                    "cost_dollars": r1.cost_dollars,
                },
                "r2_cloudera": {
                    "config": _config_dict(r2.config),
                    "runtime_seconds": r2.runtime_seconds,
                    "cost_dollars": r2.cost_dollars,
                },
            },
            "savings_vs_r1": result.savings_versus(r1),
            "savings_vs_r2": result.savings_versus(r2),
        }
        print(json.dumps(payload, indent=2))
        return 0

    rows = [
        ["optimum" if rank == 1 else f"#{rank}", entry.config.label(),
         fmt_duration(entry.runtime_seconds), f"${entry.cost_dollars:.2f}"]
        for rank, entry in enumerate(top, start=1)
    ]
    rows += [
        ["R1 (Spark)", r1.config.label(), fmt_duration(r1.runtime_seconds),
         f"${r1.cost_dollars:.2f}"],
        ["R2 (Cloudera)", r2.config.label(), fmt_duration(r2.runtime_seconds),
         f"${r2.cost_dollars:.2f}"],
    ]
    print(render_table(
        f"cheapest cloud configuration for {workload.name}"
        f" ({result.num_evaluated} candidates)",
        ["config", "details", "runtime", "cost"], rows))
    print(f"savings: {result.savings_versus(r1) * 100:.0f}% vs R1,"
          f" {result.savings_versus(r2) * 100:.0f}% vs R2")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import repro.bench as bench
    from repro.errors import BenchmarkRegressionError

    if args.report:
        history = bench.BenchHistory(args.history)
        print(bench.render_history_report(history.load(), path=history.path))
        return 0

    if args.list:
        def gate_spec(gate) -> str:
            if gate.direction == "exact":
                return f"{gate.metric}=exact"
            return (
                f"{gate.metric}:{gate.direction}"
                f"(warn x{gate.warn_ratio:g}, fail x{gate.fail_ratio:g})"
            )

        rows = [
            [
                section.name,
                section.snapshot_key or "(top level)",
                "slow" if section.slow else "",
                "; ".join(gate_spec(gate) for gate in section.gates)
                or "(none)",
                section.title,
            ]
            for section in bench.all_sections()
        ]
        print(render_table(
            "registered benchmark sections",
            ["name", "snapshot key", "", "gates", "description"], rows))
        return 0

    names = None
    if args.sections:
        names = [
            name.strip()
            for chunk in args.sections
            for name in chunk.split(",")
            if name.strip()
        ]
    sections = bench.resolve_sections(names, skip_slow=args.skip_slow)
    if not sections:
        raise ConfigurationError("no benchmark sections selected")

    history = bench.BenchHistory(args.history)
    report = bench.run_bench(sections, rounds=args.rounds, history=history)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for verdict in report.verdicts:
            if verdict.status != "pass":
                print(verdict.describe())

    if args.check:
        if not report.ok:
            raise BenchmarkRegressionError(
                f"{len(report.failures)} benchmark gate(s) failed"
                f" across {len(report.sections)} section(s)",
                verdicts=report.failures,
            )
        if not args.json:
            print(
                f"bench check OK: {len(report.sections)} section(s),"
                f" {len(report.warnings)} warning(s),"
                f" fingerprint {bench.fingerprint_key(report.fingerprint)}"
            )
        return 0

    history.append(report.record)
    if args.max_history is not None:
        dropped = history.rotate(args.max_history)
        if dropped and not args.json:
            print(f"[history rotated: dropped {dropped} oldest record(s)]")

    output = Path(args.output)
    existing = None
    if output.exists() and len(report.sections) < len(bench.all_sections()):
        try:
            existing = json.loads(output.read_text())
        except (OSError, json.JSONDecodeError):
            existing = None
    snapshot = bench.compose_snapshot(report.sections, existing=existing)
    bench.write_snapshot(output, snapshot)
    if not args.json:
        print(
            f"[appended record #{len(history)} to {history.path};"
            f" snapshot saved to {output}]"
        )
    if not report.ok:
        raise BenchmarkRegressionError(
            f"{len(report.failures)} benchmark gate(s) failed"
            f" across {len(report.sections)} section(s)",
            verdicts=report.failures,
        )
    return 0


def _service_workloads(args: argparse.Namespace) -> dict:
    """The ``{name: spec}`` map a service engine serves."""
    if args.workloads:
        names = [
            name.strip()
            for chunk in args.workloads
            for name in chunk.split(",")
            if name.strip()
        ]
    else:
        names = sorted(WORKLOADS)
    return {name: _workload(name) for name in names}


def _service_engine(args: argparse.Namespace):
    """Build a :class:`~repro.service.engine.QueryEngine` from CLI flags."""
    from repro.service import QueryEngine

    return QueryEngine(
        _service_workloads(args),
        cache=_cache(args),
        lru_size=args.lru_size,
        batch_max=args.batch_max,
        batch_delay=args.batch_delay_ms / 1e3,
        sim_queue_cap=args.queue_cap,
        workers=args.workers,
        profile_nodes=args.profile_nodes,
        execution=_execution(args),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.http import serve

    engine = _service_engine(args)

    def ready(host: str, port: int) -> None:
        # The CI smoke test greps this exact prefix to know we're up.
        print(
            f"serving on http://{host}:{port}"
            f" (workloads: {', '.join(sorted(engine.workloads))})",
            flush=True,
        )

    async def run() -> None:
        if args.warm:
            await engine.start()
            await engine.warm()
        await serve(engine, host=args.host, port=args.port, ready=ready)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import loadgen

    queries = loadgen.build_queries(
        args.workload, distinct=args.distinct, duplicates=args.duplicates
    )

    async def run() -> dict:
        if args.url:
            return await loadgen.run_against_url(
                args.url, queries, concurrency=args.concurrency
            )
        engine = _service_engine(args)
        async with engine:
            await engine.warm([args.workload])
            return await loadgen.run_against_engine(
                engine, queries, concurrency=args.concurrency
            )

    summary = asyncio.run(run())
    summary.pop("results", None)  # per-query payloads are load, not signal
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    engine_stats = summary.get("engine", {})
    print(
        f"{summary['queries']} queries in {summary['wall_seconds']:.3f}s"
        f" ({summary['qps']:.0f} qps), p50 {summary['p50_ms']:.2f}ms,"
        f" p99 {summary['p99_ms']:.2f}ms"
    )
    if engine_stats:
        lru = engine_stats.get("lru", {})
        batches = engine_stats.get("batches", {})
        print(
            f"engine: {engine_stats.get('coalesced', 0)} coalesced,"
            f" {lru.get('hits', 0)} LRU hits,"
            f" {batches.get('flushed', 0)} batch(es)"
            f" (max width {batches.get('max_size', 0)})"
        )
    return 0


def _add_workers_flag(sub: argparse.ArgumentParser) -> None:
    """The process-parallelism flags of ``pipeline``, ``serve`` and ``loadgen``."""
    sub.add_argument(
        "--workers", type=int, default=None, metavar="K",
        help="fan independent evaluations across K worker processes"
             " (0 = auto-size to the available CPUs; results are"
             " bit-identical to serial)",
    )
    sub.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock deadline for supervised parallel"
             " execution; a task past it is killed with its pool and"
             " retried (see docs/EXECUTION.md)",
    )
    sub.add_argument(
        "--task-retries", type=int, default=None, metavar="K",
        help="attempts per task before it is quarantined (default 3);"
             " exhausted tasks exit 5 with completed work checkpointed",
    )


def _execution(args: argparse.Namespace) -> ExecutionPolicy | None:
    """Build the supervised-execution policy from the CLI flags.

    ``None`` (no flags given) keeps the library default policy;
    invalid values surface as :class:`ConfigurationError` → exit 2.
    """
    if args.task_timeout is None and args.task_retries is None:
        return None
    overrides: dict = {}
    if args.task_timeout is not None:
        overrides["timeout_seconds"] = args.task_timeout
    if args.task_retries is not None:
        overrides["max_attempts"] = args.task_retries
    return ExecutionPolicy(**overrides)


def _add_resilience_flags(sub: argparse.ArgumentParser) -> None:
    """The mitigation flags shared by ``simulate`` and ``pipeline``."""
    sub.add_argument(
        "--speculation", action="store_true",
        help="speculatively re-launch straggler tasks on other nodes"
             " (spark.speculation)",
    )
    sub.add_argument(
        "--max-task-attempts", type=int, default=None, metavar="K",
        help="retry failed tasks with backoff, up to K attempts per stage"
             " re-attempt (spark.task.maxFailures)",
    )
    sub.add_argument(
        "--blacklist", action="store_true",
        help="exclude repeatedly failing or straggling executors from"
             " scheduling (spark.blacklist)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Doppio: I/O-aware Spark performance modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show built-in workload models")

    fio = sub.add_parser("fio", help="device bandwidth sweep (Fig. 5)")
    fio.add_argument("--device", choices=("hdd", "ssd"), default="hdd")
    fio.add_argument("--write", action="store_true",
                     help="sweep the write curve instead of read")

    profile = sub.add_parser("profile", help="four-sample-run profiling")
    profile.add_argument("--workload", required=True)
    profile.add_argument("--nodes", type=int, default=3)
    profile.add_argument("--fit-gc", action="store_true",
                         help="also fit the JVM GC coefficient")
    profile.add_argument("--output", default=None,
                         help="save the fitted report as JSON")
    profile.add_argument("--cache", default=None,
                         help="pipeline result-cache file to reuse/update")

    predict = sub.add_parser("predict", help="predict a configuration")
    predict.add_argument("--workload", required=True)
    predict.add_argument("--slaves", type=int, default=10)
    predict.add_argument("--cores", type=int, default=24)
    predict.add_argument("--hdfs", choices=("hdd", "ssd"), default="ssd")
    predict.add_argument("--local", choices=("hdd", "ssd"), default="ssd")
    predict.add_argument("--profile-nodes", type=int, default=3)
    predict.add_argument("--report", default=None,
                         help="reuse a saved profiling report (skips profiling)")

    simulate = sub.add_parser(
        "simulate", help="run the discrete-event simulator on a workload"
    )
    simulate.add_argument(
        "workload", nargs="?", default=None,
        help="workload name (see list-workloads); omit with --mix",
    )
    simulate.add_argument(
        "--mix", default=None, metavar="FILE",
        help="JSON mix plan: run several workloads together on one shared"
             " cluster and report per-job interference (see"
             " docs/MULTITENANT.md)",
    )
    simulate.add_argument("--slaves", type=int, default=10)
    simulate.add_argument("--cores", type=int, default=24)
    simulate.add_argument("--hdfs", choices=("hdd", "ssd"), default="ssd")
    simulate.add_argument("--local", choices=("hdd", "ssd"), default="ssd")
    simulate.add_argument(
        "--network-gbps", type=float, default=None,
        help="per-node NIC speed; omit for the paper's infinite-wire default",
    )
    simulate.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="JSON fault plan to superimpose on the run (see docs/TESTING.md);"
             " the report then shows per-stage impact vs. the clean run",
    )
    _add_resilience_flags(simulate)
    simulate.add_argument("--json", action="store_true",
                          help="emit the results as JSON instead of tables")
    simulate.add_argument("--cache", default=None,
                          help="pipeline result-cache file to reuse/update")

    pipeline = sub.add_parser(
        "pipeline",
        help="full loop: simulate, profile, and predict one workload",
    )
    pipeline.add_argument("--workload", required=True)
    pipeline.add_argument("--slaves", type=int, default=10)
    pipeline.add_argument("--cores", type=int, default=24)
    pipeline.add_argument("--hdfs", choices=("hdd", "ssd"), default="ssd")
    pipeline.add_argument("--local", choices=("hdd", "ssd"), default="ssd")
    pipeline.add_argument("--network-gbps", type=float, default=None)
    pipeline.add_argument("--runs", type=int, default=1,
                          help="task-skew realizations to simulate")
    pipeline.add_argument("--profile-nodes", type=int, default=3)
    pipeline.add_argument("--report", default=None,
                          help="drive from a saved profiling report instead"
                               " of profiling the spec")
    pipeline.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="JSON fault plan superimposed on every measurement",
    )
    _add_resilience_flags(pipeline)
    pipeline.add_argument("--json", action="store_true",
                          help="emit RunResult records as JSON")
    pipeline.add_argument("--cache", default=None,
                          help="pipeline result-cache file to reuse/update")
    _add_workers_flag(pipeline)

    optimize = sub.add_parser("optimize", help="cloud cost optimization")
    optimize.add_argument("--workload", required=True)
    optimize.add_argument("--cluster-workers", type=int, default=10,
                          metavar="N",
                          help="modeled cluster size N (the paper fixes 10"
                               " slaves)")
    optimize.add_argument("--profile-nodes", type=int, default=3)
    optimize.add_argument("--cache", default=None,
                          help="pipeline result-cache file to reuse/update")
    optimize.add_argument("--top", type=int, default=1, metavar="K",
                          help="print the K cheapest feasible configurations")
    optimize.add_argument("--json", action="store_true",
                          help="emit the search outcome as JSON")

    bench = sub.add_parser(
        "bench",
        help="run the benchmark sections with history-gated regression"
             " detection",
    )
    bench.add_argument(
        "--sections", action="append", default=None, metavar="NAMES",
        help="comma-separated section names to run (repeatable);"
             " default: all registered sections",
    )
    bench.add_argument("--rounds", type=int, default=3,
                       help="timing rounds per section (best-of)")
    bench.add_argument(
        "--check", action="store_true",
        help="gate-only mode: judge against the rolling history without"
             " appending a record or rewriting the snapshot; exit"
             " nonzero iff a gate fails",
    )
    bench.add_argument(
        "--skip-slow", action="store_true",
        help="skip sections flagged slow (unless named via --sections)",
    )
    bench.add_argument("--json", action="store_true",
                       help="emit metrics and verdicts as JSON")
    bench.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="FILE",
        help="append-only trajectory file (default: ./BENCH_history.jsonl)",
    )
    bench.add_argument(
        "--output", default="BENCH_simulator.json", metavar="FILE",
        help="latest-snapshot view (default: ./BENCH_simulator.json)",
    )
    bench.add_argument(
        "--max-history", type=int, default=None, metavar="N",
        help="after appending, atomically rotate the history down to the"
             " newest N records",
    )
    bench.add_argument("--list", action="store_true",
                       help="print the registered sections and exit")
    bench.add_argument(
        "--report", action="store_true",
        help="render per-metric sparkline trajectories from the history"
             " file (partitioned by host fingerprint) and exit",
    )

    def _add_service_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workloads", action="append", default=None, metavar="NAMES",
            help="comma-separated workloads to serve (repeatable;"
                 " default: all built-ins)",
        )
        sub.add_argument("--cache", default=None,
                         help="pipeline result-cache file shared as the"
                              " persistent read tier")
        sub.add_argument("--profile-nodes", type=int, default=3)
        sub.add_argument(
            "--lru-size", type=int, default=1024, metavar="N",
            help="in-process result-LRU capacity (canonical query"
                 " fingerprints)",
        )
        sub.add_argument(
            "--batch-max", type=int, default=32, metavar="N",
            help="micro-batch size bound for model-only queries",
        )
        sub.add_argument(
            "--batch-delay-ms", type=float, default=2.0, metavar="MS",
            help="micro-batch time bound: a lone query waits at most this"
                 " long for company",
        )
        sub.add_argument(
            "--queue-cap", type=int, default=16, metavar="N",
            help="max outstanding simulation queries before new ones are"
                 " rejected with a structured 429",
        )
        _add_workers_flag(sub)

    serve = sub.add_parser(
        "serve",
        help="run the what-if query service (HTTP/JSON, see"
             " docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 picks a free one)")
    serve.add_argument(
        "--warm", action="store_true",
        help="profile every served workload before accepting traffic",
    )
    _add_service_flags(serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="fire a deterministic what-if query mix at the service",
    )
    loadgen.add_argument(
        "--url", default=None, metavar="HOST:PORT",
        help="target a running `repro serve` over HTTP; omit to drive an"
             " in-process engine",
    )
    loadgen.add_argument("--workload", default="svm")
    loadgen.add_argument("--distinct", type=int, default=40,
                         help="unique predict configurations in the mix")
    loadgen.add_argument("--duplicates", type=int, default=5,
                         help="repetitions of each unique query")
    loadgen.add_argument("--concurrency", type=int, default=25,
                         help="max queries in flight at once")
    loadgen.add_argument("--json", action="store_true",
                         help="emit throughput/latency/engine stats as JSON")
    _add_service_flags(loadgen)

    return parser


_COMMANDS = {
    "list-workloads": cmd_list_workloads,
    "fio": cmd_fio,
    "profile": cmd_profile,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "pipeline": cmd_pipeline,
    "optimize": cmd_optimize,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors become one structured line on stderr and a stable
    exit code (:func:`repro.errors.exit_code_for`): 2 for configuration
    mistakes, 4 for unusable fault plans, 5 for host execution failures
    (worker loss, task timeouts, quarantined tasks), 3 for everything
    the simulator or model could not survive.  Exit 1 stays reserved
    for genuine crashes, which keep their tracebacks.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DoppioError as error:
        print(f"error[{type(error).__name__}]: {error}", file=sys.stderr)
        return exit_code_for(error)
