"""Query schema: validation, canonical form, fingerprints."""

import pytest

from repro.errors import QueryError
from repro.service.query import (
    DEFAULT_OPTIMIZE_VCPU_GRID,
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

    def test_non_positive_size_rejected(self):
        with pytest.raises(QueryError, match="positive"):
            parse_query(predict_payload(hdfs_gb=0))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(QueryError, match="integer"):
            parse_query(predict_payload(vcpus=True))

    def test_simulate_disk_defaults(self):
        query = parse_query(
            {"kind": "simulate", "workload": "svm", "slaves": 4, "cores": 8}
        )
        assert (query.hdfs, query.local) == ("ssd", "ssd")

    def test_optimize_grid_default_matches_cli(self):
        query = parse_query({"kind": "optimize", "workload": "svm"})
        assert query.vcpu_grid == DEFAULT_OPTIMIZE_VCPU_GRID
        assert query.num_workers == 10

    def test_optimize_empty_grid_rejected(self):
        with pytest.raises(QueryError, match="vcpu_grid"):
            parse_query(
                {"kind": "optimize", "workload": "svm", "vcpu_grid": []}
            )


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
