"""Unit tests for the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import WORKLOADS, build_parser, main
from repro.pipeline import ResultCache


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_fio_defaults(self):
        args = build_parser().parse_args(["fio"])
        assert args.device == "hdd"
        assert not args.write

    def test_predict_arguments(self):
        args = build_parser().parse_args(
            ["predict", "--workload", "svm", "--slaves", "5",
             "--cores", "12", "--hdfs", "hdd", "--local", "ssd"]
        )
        assert args.workload == "svm"
        assert args.slaves == 5
        assert args.cores == 12

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "svm", "--slaves", "4", "--cores", "8",
             "--network-gbps", "1"]
        )
        assert args.workload == "svm"
        assert args.slaves == 4
        assert args.cores == 8
        assert args.network_gbps == 1.0

    def test_simulate_network_defaults_off(self):
        args = build_parser().parse_args(["simulate", "svm"])
        assert args.network_gbps is None

    def test_resilience_flags_default_off(self):
        for command in (["simulate", "svm"], ["pipeline", "--workload", "svm"]):
            args = build_parser().parse_args(command)
            assert args.speculation is False
            assert args.max_task_attempts is None
            assert args.blacklist is False

    def test_workers_flag_defaults_to_serial(self):
        args = build_parser().parse_args(["pipeline", "--workload", "svm"])
        assert args.workers is None

    def test_optimize_cluster_workers_flag(self):
        args = build_parser().parse_args(["optimize", "--workload", "gatk4"])
        assert args.cluster_workers == 10
        args = build_parser().parse_args(
            ["optimize", "--workload", "gatk4", "--cluster-workers", "6"]
        )
        assert args.cluster_workers == 6

    def test_optimize_top_and_json_flags(self):
        args = build_parser().parse_args(["optimize", "--workload", "gatk4"])
        assert args.top == 1
        assert args.json is False
        args = build_parser().parse_args(
            ["optimize", "--workload", "gatk4", "--top", "5", "--json"]
        )
        assert args.top == 5
        assert args.json is True


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out

    def test_fio_read_sweep(self, capsys):
        assert main(["fio", "--device", "hdd"]) == 0
        out = capsys.readouterr().out
        assert "30.0KB" in out
        assert "15.0" in out  # the paper's 15 MB/s anchor

    def test_fio_write_sweep(self, capsys):
        assert main(["fio", "--device", "ssd", "--write"]) == 0
        assert "write" in capsys.readouterr().out

    def test_unknown_workload_maps_to_config_exit_code(self, capsys):
        assert main(["profile", "--workload", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigurationError]:")
        assert "nope" in err

    def test_unreadable_fault_plan_maps_to_fault_exit_code(self, capsys, tmp_path):
        missing = tmp_path / "no-such-plan.json"
        assert main(["simulate", "svm", "--fault-plan", str(missing)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error[FaultError]:")
        assert "\n" not in captured.err.strip()  # one structured line
        assert "Traceback" not in captured.err

    def test_deeply_nested_plans_are_structured_errors(self, capsys, tmp_path):
        # Nesting under any size limit can still exhaust the JSON
        # parser's recursion: a fault plan exits 4, a mix plan 2, a
        # profiling report 3.
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 30000 + "]" * 30000)
        for argv, code, error in (
            (["simulate", "svm", "--fault-plan", str(nested)], 4, "FaultError"),
            (["simulate", "--mix", str(nested)], 2, "ConfigurationError"),
            (["predict", "--workload", "svm", "--report", str(nested)], 3,
             "ModelError"),
        ):
            assert main(argv) == code
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error[{error}]:")
            assert "nested too deeply" in captured.err
            assert "Traceback" not in captured.err

    def test_mix_plan_job_names_must_be_strings(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        for bad_name in (5, ["x"]):
            plan.write_text(json.dumps({"jobs": [
                {"workload": "svm", "name": bad_name},
                {"workload": "lr-small", "name": "b"},
            ]}))
            assert main(
                ["simulate", "--mix", str(plan), "--slaves", "2",
                 "--cores", "2", "--json"]
            ) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error[ConfigurationError]:")
            assert "name must be a string" in captured.err
            assert "\n" not in captured.err.strip()  # one structured line
            assert "Traceback" not in captured.err

    def test_mix_plan_workloads_must_be_strings(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        for bad_workload in (["svm"], {"name": "svm"}):
            plan.write_text(json.dumps({"jobs": [{"workload": bad_workload}]}))
            assert main(
                ["simulate", "--mix", str(plan), "--slaves", "2",
                 "--cores", "2", "--json"]
            ) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error[ConfigurationError]:")
            assert "jobs[0]: workload must be a string" in captured.err
            assert "\n" not in captured.err.strip()  # one structured line
            assert "Traceback" not in captured.err
            assert captured.out == ""

    def test_mix_plan_integer_past_the_digit_limit_is_refused(
        self, capsys, tmp_path
    ):
        # json.loads raises a bare ValueError for an integer literal of
        # more than 4,300 digits, not a JSONDecodeError.
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"jobs": [{"workload": "svm", "arrival": %s}]}' % ("9" * 5000)
        )
        assert main(["simulate", "--mix", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[ConfigurationError]:")
        assert "not valid JSON" in captured.err
        assert "Traceback" not in captured.err

    def test_fault_plan_and_report_integers_past_the_digit_limit_are_refused(
        self, capsys, tmp_path
    ):
        # As for mix plans: the bare ValueError json.loads raises for an
        # integer literal of more than 4,300 digits is bad JSON.
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"name": "x", "faults": [{"type": "disk", "factor": %s}]}'
            % ("1" * 5000)
        )
        report = tmp_path / "report.json"
        report.write_text('{"workload": %s}' % ("1" * 5000))
        for argv, code, error in (
            (["simulate", "svm", "--slaves", "2", "--cores", "2",
              "--fault-plan", str(plan)], 4, "FaultError"),
            (["predict", "--workload", "svm", "--report", str(report)], 3,
             "ModelError"),
        ):
            assert main(argv) == code
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error[{error}]:")
            assert "not valid JSON" in captured.err
            assert "\n" not in captured.err.strip()  # one structured line
            assert "Traceback" not in captured.err

    def test_fault_plan_node_indices_must_be_integers(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        for fault in (
            {"type": "straggler", "node": 1.5, "slowdown": 2},
            {"type": "node_failure", "node": 0.5, "at_seconds": 1},
            {"type": "disk", "node": 1.5, "factor": 0.5},
            {"type": "nic_jitter", "node": 1.5, "factor": 0.5, "period": 1},
            {"type": "disk", "node": True, "factor": 0.5},
        ):
            plan.write_text(json.dumps({"name": "x", "faults": [fault]}))
            assert main(
                ["simulate", "svm", "--slaves", "2", "--cores", "2",
                 "--fault-plan", str(plan)]
            ) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error[FaultError]:")
            assert "node index must be an integer" in captured.err
            assert "\n" not in captured.err.strip()  # one structured line

    def test_hostile_profiling_reports_exit_3(self, capsys, tmp_path):
        def report(stage_edit=None, channel_edit=None, **top):
            channel = {"kind": "hdfs_read", "role": "hdfs",
                       "total_bytes": 1e9, "request_size": 1e5,
                       "is_write": False}
            stage = {"name": "s", "num_tasks": 4, "t_avg": 5.0,
                     "delta_scale": 0.0, "delta_read": 0.0,
                     "delta_write": 0.0, "fill_seconds": 5.0,
                     "channels": [{**channel, **(channel_edit or {})}]}
            return {"format_version": 1, "workload_name": "svm", "nodes": 2,
                    "stages": [{**stage, **(stage_edit or {})}], **top}

        path = tmp_path / "report.json"
        argv = ["predict", "--workload", "svm", "--slaves", "2", "--cores",
                "2", "--report", str(path)]
        path.write_text(json.dumps(report()))
        assert main(argv) == 0
        capsys.readouterr()
        for document, message in (
            (report({"t_avg": float("inf")}), "must be finite"),
            (report({"t_avg": float("nan")}), "must be finite"),
            (report(channel_edit={"request_size": float("nan")}),
             "must be finite"),
            (report({"num_tasks": float("inf")}), "must be finite"),
            (report({"name": ["a"]}), "must be a string"),
            (report(channel_edit={"role": ["hdfs"]}), "must be a string"),
            (report(workload_name=7), "must be a string"),
        ):
            path.write_text(json.dumps(document))
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error[ModelError]:")
            assert message in captured.err
            assert "\n" not in captured.err.strip()  # one structured line

    def test_mix_plan_volume_scale_that_overflows_is_refused(
        self, capsys, tmp_path
    ):
        # Finite, but it overflows one SVM channel's bytes_per_task to inf.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"jobs": [{"workload": "svm", "volume_scale": 1e300}]}
        ))
        assert main(
            ["simulate", "--mix", str(plan), "--slaves", "2", "--cores", "2",
             "--json"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[WorkloadError]:")
        assert "overflows" in captured.err
        assert "\n" not in captured.err.strip()  # one structured line
        assert captured.out == ""

    def test_bad_resilience_knob_maps_to_config_exit_code(self, capsys):
        assert main(["simulate", "svm", "--max-task-attempts", "0"]) == 2
        assert capsys.readouterr().err.startswith("error[ConfigurationError]:")

    def test_profile_small_workload(self, capsys):
        # SVM is the fastest built-in to profile.
        assert main(["profile", "--workload", "svm", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "dataValidator" in out
        assert "t_avg" in out

    def test_predict_small_workload(self, capsys):
        assert main(
            ["predict", "--workload", "svm", "--slaves", "4", "--cores", "8",
             "--hdfs", "ssd", "--local", "hdd", "--profile-nodes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "bottleneck" in out

    def test_simulate_small_workload(self, capsys):
        assert main(["simulate", "svm", "--slaves", "2", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "core util" in out
        assert "iostat request-size summary" in out
        assert "avgrq-sz" in out

    def test_simulate_with_network(self, capsys):
        assert main(
            ["simulate", "svm", "--slaves", "2", "--cores", "4",
             "--network-gbps", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 Gb/s NIC" in out
        assert "nic" in out  # NIC rows in the utilization table


class TestJsonOutput:
    def test_simulate_json(self, capsys):
        assert main(
            ["simulate", "svm", "--slaves", "2", "--cores", "4", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "SVM"
        assert payload["slaves"] == 2
        assert payload["cores_per_node"] == 4
        assert payload["total_seconds"] > 0
        assert all(s["makespan_seconds"] > 0 for s in payload["stages"])
        assert all(
            entry["direction"] in ("read", "write")
            for entry in payload["iostat"] + payload["device_utilizations"]
        )

    def test_simulate_json_matches_runner(self, capsys):
        from repro.cli import WORKLOADS
        from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
        from repro.workloads.runner import measure_workload

        assert main(
            ["simulate", "svm", "--slaves", "2", "--cores", "4", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = measure_workload(
            make_paper_cluster(2, HYBRID_CONFIGS[0]), 4, WORKLOADS["svm"]()
        )
        assert payload["total_seconds"] == direct.total_seconds


class TestPipelineCommand:
    def test_table_output(self, capsys):
        assert main(
            ["pipeline", "--workload", "svm", "--slaves", "2",
             "--cores", "4", "--profile-nodes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "spec:SVM @ cluster[hdfs=ssd,local=ssd]" in out
        assert "TOTAL" in out
        assert "bottleneck" in out
        assert "cache:" in out

    def test_json_runs_and_cross_process_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        argv = [
            "pipeline", "--workload", "svm", "--slaves", "2", "--cores", "4",
            "--runs", "2", "--profile-nodes", "2", "--json",
            "--cache", str(cache),
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "spec:SVM @ cluster[hdfs=ssd,local=ssd]"
        assert [run["run_index"] for run in payload["runs"]] == [0, 1]
        for run in payload["runs"]:
            assert run["measured_seconds"] > 0
            assert run["predicted_seconds"] > 0
            assert run["stages"]
        assert cache.exists()

        # A second invocation replays everything from the cache file and
        # must reproduce the records bit for bit.
        assert main(argv) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert "100% hits" in replayed["cache"]["summary"]
        assert replayed["cache"]["hits"] > 0
        assert replayed["cache"]["measurements"]["entries"] > 0
        assert replayed["runs"] == payload["runs"]

    def test_a_fully_warm_run_leaves_the_cache_file_alone(
        self, capsys, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache.json"
        argv = [
            "pipeline", "--workload", "lr-small", "--slaves", "2",
            "--cores", "4", "--runs", "2", "--profile-nodes", "2",
            "--cache", str(cache),
        ]
        assert main(argv) == 0
        written = cache.read_bytes()
        saves = []
        save = ResultCache.save

        def counted_save(self, *args):
            saves.append(self.path)
            return save(self, *args)

        monkeypatch.setattr(ResultCache, "save", counted_save)
        assert main(argv) == 0
        assert "100% hits" in capsys.readouterr().out
        assert saves == []
        assert cache.read_bytes() == written

    def test_profile_cache_feeds_the_pipeline(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        assert main([
            "profile", "--workload", "lr-small", "--nodes", "2",
            "--cache", str(cache),
        ]) == 0
        assert cache.exists()
        capsys.readouterr()
        assert main([
            "pipeline", "--workload", "lr-small", "--profile-nodes", "2",
            "--slaves", "2", "--cores", "4", "--runs", "1", "--json",
            "--cache", str(cache),
        ]) == 0
        reports = json.loads(capsys.readouterr().out)["cache"]["reports"]
        assert (reports["hits"], reports["misses"]) == (1, 0)

    def test_workers_flag_reproduces_serial_json(self, capsys):
        argv = [
            "pipeline", "--workload", "svm", "--slaves", "2", "--cores", "4",
            "--runs", "2", "--profile-nodes", "2", "--json",
        ]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["runs"] == serial["runs"]

    def test_a_stage_abort_exits_3_serially_and_pooled(self, capsys, tmp_path):
        # A pool worker's StageFailedError comes home as itself, so the
        # pooled run prints it and exits 3 like the serial one, not 5.
        plan = tmp_path / "doom.json"
        plan.write_text(json.dumps({
            "name": "doom",
            "faults": [{"type": "disk", "factor": 0.0, "start": 0.0}],
        }))
        argv = [
            "pipeline", "--workload", "lr-small", "--profile-nodes", "2",
            "--slaves", "2", "--cores", "2", "--max-task-attempts", "1",
            "--fault-plan", str(plan),
        ]
        for workers in ([], ["--workers", "2"]):
            assert main(argv + workers) == 3
            assert capsys.readouterr().err.startswith(
                "error[StageFailedError]: stage 'dataValidator' aborted"
            )

    def test_optimize_top_lists_ranked_configs(self, capsys):
        argv = [
            "optimize", "--workload", "svm", "--profile-nodes", "2",
            "--top", "3",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "optimum" in out
        assert "#2" in out
        assert "#3" in out
        assert "R1 (Spark)" in out
        assert "savings:" in out

    def test_optimize_json_payload(self, capsys, tmp_path):
        from repro.cloud import CostOptimizer
        from repro.pipeline import (
            ClusterPlatform,
            Experiment,
            ResultCache,
            SpecSource,
        )

        cache_path = tmp_path / "cache.json"
        argv = [
            "optimize", "--workload", "svm", "--profile-nodes", "2",
            "--top", "3", "--cache", str(cache_path), "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "SVM"
        assert [entry["rank"] for entry in payload["top"]] == [1, 2, 3]
        # ``top`` is the first K of the exhaustive search's candidates
        # after a stable sort by cost (ties keep grid order), rebuilt
        # here from the profile the command cached.
        workload = WORKLOADS["svm"]()
        experiment = Experiment(
            SpecSource(workload, profile_nodes=2),
            ClusterPlatform(),
            cache=ResultCache(cache_path),
        )
        hdfs_gb, local_gb = CostOptimizer.capacity_requirements(
            workload, num_workers=10
        )
        search = CostOptimizer(
            experiment.predictor, num_workers=10,
            min_hdfs_gb=hdfs_gb, min_local_gb=local_gb,
        ).grid_search(vcpu_grid=(4, 8, 16, 32))
        ranked = sorted(search.evaluated, key=lambda e: e.cost_dollars)
        assert payload["num_evaluated"] == search.num_evaluated
        assert [
            (entry["config"]["label"], entry["runtime_seconds"],
             entry["cost_dollars"])
            for entry in payload["top"]
        ] == [
            (e.config.label(), e.runtime_seconds, e.cost_dollars)
            for e in ranked[:3]
        ]
        for reference in payload["references"].values():
            assert payload["top"][0]["cost_dollars"] <= reference["cost_dollars"]
        assert 0.0 < payload["savings_vs_r1"] < 1.0

    def test_optimize_never_imports_numpy(self):
        # The array kernel is pure Python; an import on the user path
        # would cost ~13 MB of RSS for nothing.
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['optimize', '--workload', 'svm', '--profile-nodes',"
            " '2', '--top', '3', '--json']) == 0\n"
            "assert 'numpy' not in sys.modules, 'optimize imported numpy'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_optimize_top_must_be_positive(self, capsys):
        argv = ["optimize", "--workload", "svm", "--top", "0"]
        assert main(argv) == 2
        assert "ConfigurationError" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", ["0", "-1"])
    def test_optimize_cluster_workers_must_be_positive(self, capsys, nodes):
        argv = ["optimize", "--workload", "svm", "--cluster-workers", nodes]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert (
            "error[OptimizationError]: worker count must be positive"
            in captured.err
        )
        assert "profiling" not in captured.out  # refused before profiling


class TestServiceCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.lru_size == 1024
        assert args.queue_cap == 16
        assert not args.warm
        # The simulator runs in an auto-sized worker pool; an explicit
        # count still wins.
        assert args.workers == 0
        assert build_parser().parse_args(["serve", "--workers", "1"]).workers == 1

    def test_batch_max_flag_is_gone(self):
        # A predict miss is scored on arrival: there is no batch to bound.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--batch-max", "8"])

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.url is None
        assert args.workload == "svm"
        assert args.distinct == 40
        assert args.duplicates == 5
        assert args.concurrency == 25
        assert args.workers is None  # the in-process engine stays serial

    def test_loadgen_in_process_json(self, capsys):
        argv = [
            "loadgen", "--workload", "lr-small", "--workloads", "lr-small",
            "--profile-nodes", "2", "--distinct", "4", "--duplicates", "3",
            "--concurrency", "8", "--json",
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["queries"] == 12
        assert summary["qps"] > 0
        assert "results" not in summary  # stripped: load, not signal
        engine = summary["engine"]
        assert engine["queries"] == 12
        # 4 distinct configs and 12 queries: 8 were answered without a
        # fresh evaluation, split between coalescing and the LRU.
        assert engine["coalesced"] + engine["lru"]["hits"] == 8

    def test_loadgen_human_summary(self, capsys):
        argv = [
            "loadgen", "--workload", "lr-small", "--workloads", "lr-small",
            "--profile-nodes", "2", "--distinct", "2", "--duplicates", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 queries in" in out
        assert "engine:" in out and "LRU hits" in out

    def test_loadgen_rejects_unknown_workload(self, capsys):
        argv = ["loadgen", "--workload", "nope"]
        assert main(argv) == 2
