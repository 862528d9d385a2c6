"""The estimator-plurality contract: every backend answers the shared
workload within its documented error envelope, the SIT backend stays
bit-identical to the pre-refactor class, and ``backend``/``error_bound``
provenance survives the wire."""

from __future__ import annotations

import warnings

import pytest

from repro.estimators import (
    BACKENDS,
    BayesianNetworkEstimator,
    Estimator,
    GuaranteedSampleEstimator,
    SITEstimator,
    create_estimator,
)
from repro.stats.pool import SITPool

#: documented error envelopes on the shared parity workload:
#: * ``sit``  — exact DP over the conditioned pool (matches the paper)
#: * ``bn``   — per-table Chow-Liu trees: absolute error below 0.1
#: * ``sample`` — within its own distribution-free ``error_bound``
BN_ABS_ENVELOPE = 0.1


def backend_for(name, db, pool) -> Estimator:
    return create_estimator(name, db, pool)


class TestRegistry:
    def test_backend_names(self):
        assert BACKENDS == ("sit", "bn", "sample")

    def test_unknown_backend_rejected(self, two_table_db, two_table_pool):
        with pytest.raises(ValueError, match="unknown estimator backend"):
            create_estimator("oracle", two_table_db, two_table_pool)

    def test_sit_only_kwargs_rejected_on_peers(
        self, two_table_db, two_table_pool
    ):
        for name in ("bn", "sample"):
            with pytest.raises(TypeError, match="does not accept"):
                create_estimator(
                    name, two_table_db, two_table_pool, strict=True
                )

    def test_factory_types_and_tags(self, two_table_db, two_table_pool):
        made = {
            name: backend_for(name, two_table_db, two_table_pool)
            for name in BACKENDS
        }
        assert isinstance(made["sit"], SITEstimator)
        assert isinstance(made["bn"], BayesianNetworkEstimator)
        assert isinstance(made["sample"], GuaranteedSampleEstimator)
        for name, estimator in made.items():
            assert isinstance(estimator, Estimator)
            assert estimator.backend == name
            assert estimator.stats_snapshot().meta["backend"] == name


class TestParity:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_results_are_tagged_and_bounded(
        self, name, two_table_db, two_table_pool, parity_queries
    ):
        estimator = backend_for(name, two_table_db, two_table_pool)
        for predicates in parity_queries:
            result = estimator.estimate_predicates(predicates)
            assert result.backend == name
            assert 0.0 <= result.selectivity <= 1.0
            if name == "sample":
                assert result.error_bound is not None
                assert 0.0 < result.error_bound <= 1.0
            else:
                assert result.error_bound is None
        if name != "sit":  # the peer backends count the answers they give
            counters = estimator.stats_snapshot().counters
            assert counters["estimates"] == len(parity_queries)

    def test_sample_estimates_within_their_guarantee(
        self, two_table_db, two_table_pool, parity_queries, parity_truth
    ):
        estimator = backend_for("sample", two_table_db, two_table_pool)
        for predicates, truth in zip(parity_queries, parity_truth):
            result = estimator.estimate_predicates(predicates)
            assert abs(result.selectivity - truth) <= result.error_bound

    def test_bn_estimates_within_the_documented_envelope(
        self, two_table_db, two_table_pool, parity_queries, parity_truth
    ):
        estimator = backend_for("bn", two_table_db, two_table_pool)
        for predicates, truth in zip(parity_queries, parity_truth):
            result = estimator.estimate_predicates(predicates)
            assert abs(result.selectivity - truth) <= BN_ABS_ENVELOPE

    def test_estimates_are_deterministic(
        self, two_table_db, two_table_pool, parity_queries
    ):
        for name in BACKENDS:
            first = backend_for(name, two_table_db, two_table_pool)
            second = backend_for(name, two_table_db, two_table_pool)
            for predicates in parity_queries:
                assert (
                    first.estimate_predicates(predicates).selectivity
                    == second.estimate_predicates(predicates).selectivity
                )


class TestSITBitIdentity:
    def test_create_estimator_sit_matches_direct_construction(
        self, two_table_db, two_table_pool, parity_queries
    ):
        made = backend_for("sit", two_table_db, two_table_pool)
        direct = SITEstimator(two_table_db, two_table_pool)
        for predicates in parity_queries:
            assert (
                made.estimate_predicates(predicates).selectivity
                == direct.estimate_predicates(predicates).selectivity
            )


class TestInvalidation:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_notify_table_update_bumps_versions(
        self, name, two_table_db, two_table_pool, parity_queries
    ):
        estimator = backend_for(name, two_table_db, two_table_pool)
        estimator.estimate_predicates(parity_queries[0])
        first = estimator.notify_table_update("R")
        second = estimator.notify_table_update("R")
        assert second == first + 1

    def test_sample_reservoir_rebuilds_after_invalidate(
        self, two_table_db, two_table_pool, parity_queries
    ):
        estimator = backend_for("sample", two_table_db, two_table_pool)
        estimator.estimate_predicates(parity_queries[3])
        built = estimator.stats_snapshot().counters["samples_built"]
        estimator.notify_table_update("R")
        estimator.estimate_predicates(parity_queries[3])
        snapshot = estimator.stats_snapshot()
        rebuilt = snapshot.counters["samples_built"]
        assert rebuilt == built + 1  # only R re-sampled, S kept
        assert snapshot.caches["sampled_tables"] == 2.0

    def test_bn_model_rebuilds_after_invalidate(
        self, two_table_db, two_table_pool, parity_queries
    ):
        estimator = backend_for("bn", two_table_db, two_table_pool)
        estimator.estimate_predicates(parity_queries[3])
        built = estimator.stats_snapshot().counters["models_built"]
        estimator.notify_table_update("R")
        estimator.estimate_predicates(parity_queries[3])
        snapshot = estimator.stats_snapshot()
        rebuilt = snapshot.counters["models_built"]
        assert rebuilt == built + 1
        # only the filtered table needs a model; the join factor is a
        # value overlap
        assert snapshot.caches["table_models"] == 1.0
        # the join factor is cached per (tables, table versions)
        assert snapshot.caches["join_cache_entries"] >= 1.0

    def test_catalog_backed_peer_sees_catalog_invalidation(
        self, two_table_db, two_table_pool, parity_queries
    ):
        """An invalidation issued on the *catalog* (the single event
        path) is observed lazily by a catalog-backed peer backend."""
        from repro.catalog import StatisticsCatalog

        catalog = StatisticsCatalog.from_pool(
            two_table_pool, database=two_table_db
        )
        estimator = backend_for("sample", two_table_db, catalog)
        estimator.estimate_predicates(parity_queries[3])
        built = estimator.stats_snapshot().counters["samples_built"]
        catalog.notify_table_update("R")
        estimator.estimate_predicates(parity_queries[3])
        rebuilt = estimator.stats_snapshot().counters["samples_built"]
        assert rebuilt == built + 1


class TestDeprecationShim:
    def test_old_import_path_is_removed(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.core.estimator  # noqa: F401

    def test_modern_class_does_not_warn(self, two_table_db, two_table_pool):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SITEstimator(two_table_db, two_table_pool)


class TestWireProvenance:
    def test_backend_and_bound_round_trip(self):
        from repro.service.protocol import ServedEstimate

        answer = ServedEstimate(
            selectivity=0.25,
            cardinality=1000.0,
            error=0.1,
            snapshot_version=3,
            latency_ms=1.5,
            backend="sample",
            error_bound=0.0625,
        )
        payload = answer.to_wire(request_id=7)
        assert payload["backend"] == "sample"
        assert payload["error_bound"] == 0.0625
        decoded = ServedEstimate.from_wire(payload)
        assert decoded.backend == "sample"
        assert decoded.error_bound == 0.0625

    def test_default_backend_stays_off_the_wire(self):
        """SIT answers keep the exact pre-plurality payload key set, so
        old clients (and the 400-pair parity goldens) see no new keys."""
        from repro.service.protocol import ServedEstimate

        answer = ServedEstimate(
            selectivity=0.25,
            cardinality=1000.0,
            error=0.1,
            snapshot_version=3,
            latency_ms=1.5,
        )
        payload = answer.to_wire()
        assert "backend" not in payload
        assert "error_bound" not in payload
        decoded = ServedEstimate.from_wire(payload)
        assert decoded.backend == "sit"
        assert decoded.error_bound is None

    def test_explain_json_emits_backend_conditionally(
        self, two_table_db, two_table_pool, parity_queries
    ):
        from repro.engine.expressions import Query

        query = Query(parity_queries[3])
        sit = backend_for("sit", two_table_db, two_table_pool).explain(query)
        assert "backend" not in sit.to_dict()
        sampled = backend_for("sample", two_table_db, two_table_pool).explain(
            query
        )
        payload = sampled.to_dict()
        assert payload["backend"] == "sample"
        assert payload["error_bound"] > 0.0
        assert "backend:     sample" in sampled.render_text()


class TestServiceRouting:
    def test_connect_selects_the_backend(self, two_table_db, two_table_pool):
        from repro.catalog import StatisticsCatalog
        from repro.service import connect

        catalog = StatisticsCatalog.from_pool(
            two_table_pool, database=two_table_db
        )
        sql = (
            "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"
        )
        with connect(catalog, backend="sample") as client:
            answer = client.estimate(sql)
            assert answer.backend == "sample"
            assert answer.error_bound is not None

    def test_config_rejects_unknown_backend(self):
        from repro.service import ServiceConfig

        with pytest.raises(ValueError, match="backend"):
            ServiceConfig(backend="oracle")

    def test_serve_has_no_shards_option(self, capsys):
        # every backend is served by the one single-process service;
        # the multi-process tier and its --shards flag are gone
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--backend", "bn", "--shards", "2"])
        assert exit_info.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


class TestLadderFallback:
    def without_ra(self, pool, two_table_attrs) -> SITPool:
        """The pool without any statistic on ``R.a``: a filter on it
        finds no SIT and no base histogram at level 0."""
        ra = two_table_attrs["Ra"]
        return SITPool([sit for sit in pool if sit.attribute != ra])

    def test_level3_degrades_to_the_sampling_backend(
        self,
        two_table_db,
        two_table_pool,
        two_table_attrs,
        parity_queries,
        parity_truth,
    ):
        """With the factory-wired fallback, the ladder's last rung is a
        guaranteed sample, not the 1/3-1/10 magic constants."""
        from repro.resilience import LEVEL_MAGIC, magic_selectivity

        pool = self.without_ra(two_table_pool, two_table_attrs)
        estimator = backend_for("sit", two_table_db, pool)
        assert isinstance(
            estimator.fallback_estimator, GuaranteedSampleEstimator
        )
        predicates = parity_queries[3]
        result = estimator.estimate_predicates(predicates)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.backend == "sample"
        assert result.error_bound is not None
        assert abs(result.selectivity - parity_truth[3]) <= result.error_bound
        assert result.selectivity != magic_selectivity(predicates)

    def test_bare_estimator_still_lands_on_magic_constants(
        self, two_table_db, two_table_pool, two_table_attrs, parity_queries
    ):
        """Without a wired fallback the pre-existing behaviour is
        untouched: level 3 answers with the magic constants."""
        from repro.resilience import LEVEL_MAGIC, magic_selectivity

        pool = self.without_ra(two_table_pool, two_table_attrs)
        estimator = SITEstimator(two_table_db, pool)
        assert estimator.fallback_estimator is None
        predicates = parity_queries[3]
        result = estimator.estimate_predicates(predicates)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.backend == "magic"
        assert result.selectivity == magic_selectivity(predicates)
