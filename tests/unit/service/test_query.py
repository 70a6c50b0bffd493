"""Query schema: validation, canonical form, fingerprints."""

import pytest

from repro.cluster.cluster import PAPER_CORES_PER_NODE
from repro.errors import QueryError
from repro.service.query import (
    DEFAULT_OPTIMIZE_VCPU_GRID,
    MAX_SIMULATE_SLAVES,
    parse_query,
)


def predict_payload(**overrides):
    payload = {
        "kind": "predict",
        "workload": "svm",
        "vcpus": 16,
        "hdfs_kind": "pd-ssd",
        "hdfs_gb": 512,
        "local_kind": "pd-standard",
        "local_gb": 1024,
    }
    payload.update(overrides)
    return payload


class TestValidation:
    def test_non_dict_payload_rejected(self):
        with pytest.raises(QueryError, match="JSON object"):
            parse_query(["predict"])

    def test_missing_kind_rejected(self):
        with pytest.raises(QueryError, match="kind"):
            parse_query({"workload": "svm"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError, match="unknown kind"):
            parse_query({"kind": "explain", "workload": "svm"})

    def test_missing_required_field_rejected(self):
        payload = predict_payload()
        del payload["vcpus"]
        with pytest.raises(QueryError, match="vcpus"):
            parse_query(payload)

    def test_unknown_field_rejected(self):
        for payload in (
            predict_payload(wibble=1),
            # optimize queries take no search-pruning switch.
            {"kind": "optimize", "workload": "svm", "prune": True},
        ):
            with pytest.raises(QueryError, match="unknown field"):
                parse_query(payload)

    def test_unknown_workload_rejected_when_catalogue_given(self):
        with pytest.raises(QueryError, match="unknown workload"):
            parse_query(predict_payload(), known_workloads={"gatk4": object()})

    def test_unknown_disk_kind_lists_the_catalogue(self):
        with pytest.raises(QueryError, match="pd-ssd"):
            parse_query(predict_payload(hdfs_kind="floppy"))

    @pytest.mark.parametrize(
        "value", [["pd-ssd"], {"kind": "pd-ssd"}], ids=["list", "object"]
    )
    def test_unhashable_disk_kind_rejected(self, value):
        with pytest.raises(QueryError, match="hdfs_kind must be one of"):
            parse_query(predict_payload(hdfs_kind=value))

    def test_non_positive_size_rejected(self):
        with pytest.raises(QueryError, match="positive"):
            parse_query(predict_payload(hdfs_gb=0))

    @pytest.mark.parametrize("field", ["hdfs_gb", "local_gb"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["nan", "inf", "-inf", "past-float-range"],
    )
    def test_non_finite_size_rejected(self, field, value):
        with pytest.raises(QueryError, match=f"{field} must be finite"):
            parse_query(predict_payload(**{field: value}))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(QueryError, match="integer"):
            parse_query(predict_payload(vcpus=True))

    def test_simulate_disk_defaults(self):
        query = parse_query(
            {"kind": "simulate", "workload": "svm", "slaves": 4, "cores": 8}
        )
        assert (query.hdfs, query.local) == ("ssd", "ssd")

    def test_simulate_cores_above_a_node_rejected(self):
        # A node has 36 cores: past the parser, 64 fails in the
        # simulator on every supervised attempt and comes back a 500.
        with pytest.raises(QueryError, match="cores must be <= 36"):
            parse_query(
                {"kind": "simulate", "workload": "svm", "slaves": 2,
                 "cores": PAPER_CORES_PER_NODE + 1}
            )

    def test_simulate_slaves_above_the_cap_rejected(self):
        for slaves in (MAX_SIMULATE_SLAVES + 1, 20000):
            with pytest.raises(QueryError, match="slaves must be <="):
                parse_query(
                    {"kind": "simulate", "workload": "svm",
                     "slaves": slaves, "cores": 36}
                )

    def test_simulate_at_both_caps_accepted(self):
        query = parse_query(
            {"kind": "simulate", "workload": "svm",
             "slaves": MAX_SIMULATE_SLAVES, "cores": PAPER_CORES_PER_NODE}
        )
        assert (query.slaves, query.cores) == (100, 36)

    @pytest.mark.parametrize("kind", ["predict", "optimize"])
    @pytest.mark.parametrize(
        "workers", [MAX_SIMULATE_SLAVES + 1, 10**18, 10**400],
        ids=["101", "1e18", "1e400"],
    )
    def test_num_workers_above_the_cap_rejected(self, kind, workers):
        # Unbounded, 10**18 was a 200 for an absurd cluster and 10**400
        # overflowed the array kernel into a 500.
        def payload(num_workers):
            if kind == "predict":
                return predict_payload(num_workers=num_workers)
            return {"kind": "optimize", "workload": "svm",
                    "num_workers": num_workers}

        with pytest.raises(QueryError, match="num_workers must be <= 100"):
            parse_query(payload(workers))
        assert parse_query(payload(MAX_SIMULATE_SLAVES)).num_workers == 100

    def test_optimize_grid_default_matches_cli(self):
        query = parse_query({"kind": "optimize", "workload": "svm"})
        assert query.vcpu_grid == DEFAULT_OPTIMIZE_VCPU_GRID
        assert query.num_workers == 10

    def test_optimize_empty_grid_rejected(self):
        with pytest.raises(QueryError, match="vcpu_grid"):
            parse_query(
                {"kind": "optimize", "workload": "svm", "vcpu_grid": []}
            )

    def test_optimize_repeated_grid_entry_rejected(self):
        # Repeats rescore the same candidates: 1,000 of them fit in a
        # 3 KB body and would make one search of 360,000 candidates.
        for grid in ([4, 4], [4, 8, 16, 8], [4] * 1000):
            with pytest.raises(QueryError, match="repeats"):
                parse_query(
                    {"kind": "optimize", "workload": "svm", "vcpu_grid": grid}
                )

    def test_optimize_grid_entry_outside_the_catalogue_rejected(self):
        for size in (3, 12, 128):
            with pytest.raises(QueryError, match="n1-standard"):
                parse_query(
                    {"kind": "optimize", "workload": "svm",
                     "vcpu_grid": [4, size]}
                )

    def test_optimize_whole_catalogue_accepted(self):
        grid = [64, 1, 2, 4, 8, 16, 32]
        query = parse_query(
            {"kind": "optimize", "workload": "svm", "vcpu_grid": grid}
        )
        assert query.vcpu_grid == tuple(grid)  # the search's row order


class TestCanonicalIdentity:
    def test_parsed_queries_are_canonical_equal(self):
        # int vs float sizes and field order don't matter.
        a = parse_query(predict_payload(hdfs_gb=512))
        b = parse_query(dict(reversed(list(predict_payload(hdfs_gb=512.0).items()))))
        assert a == b
        assert hash(a) == hash(b)
        assert a.fingerprint == b.fingerprint

    def test_defaults_are_filled_into_identity(self):
        explicit = parse_query(predict_payload(num_workers=10))
        defaulted = parse_query(predict_payload())
        assert explicit == defaulted

    def test_kinds_never_collide(self):
        predict = parse_query(predict_payload())
        simulate = parse_query(
            {"kind": "simulate", "workload": "svm", "slaves": 4, "cores": 8}
        )
        assert predict != simulate
        assert predict.fingerprint != simulate.fingerprint

    def test_different_configs_differ(self):
        assert parse_query(predict_payload()) != parse_query(
            predict_payload(vcpus=32)
        )
