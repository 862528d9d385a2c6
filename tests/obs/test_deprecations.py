"""Removed deprecation surfaces stay removed; replacements work.

Each release's shims get exactly one release of ``DeprecationWarning``
grace before removal.  These tests pin the *removals* (the old
spellings raise ``ImportError``/``TypeError``/``AttributeError``) and
exercise the replacement surfaces side by side, so a regression that
silently resurrects an old shim fails loudly.  Pinned here:

* PR2-era: flat ``stats`` dicts, the ``legacy=`` engine kwarg (and the
  estimator's ``engine=`` that replaced it) and the pool query quartet;
* the ``repro.core.estimator`` module (``CardinalityEstimator`` →
  :class:`repro.estimators.SITEstimator`);
* the pre-``connect()`` client names (``Client``, ``TCPClient``);
* the flat healing spelling of ``ServiceConfig`` (kwargs, attributes)
  — and since the self-healing tier went, the nested ``healing`` block
  too — and the ``repro.obs.deprecated`` warning helper that no shim is
  left to call.
"""

from __future__ import annotations

import pytest

from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity, LegacyGetSelectivity
from repro.estimators import SITEstimator
from repro.optimizer.integration import MemoCoupledEstimator


@pytest.fixture
def predicates(two_table_join, two_table_attrs):
    from repro.core.predicates import FilterPredicate

    return frozenset(
        {two_table_join, FilterPredicate(two_table_attrs["Ra"], 10.0, 60.0)}
    )


class TestEngineFactory:
    def test_create_bitmask_default(self, two_table_pool):
        algorithm = GetSelectivity.create(two_table_pool, NIndError())
        assert type(algorithm) is GetSelectivity
        assert algorithm.engine == "bitmask"

    def test_create_legacy(self, two_table_pool):
        algorithm = GetSelectivity.create(
            two_table_pool, NIndError(), engine="legacy"
        )
        assert type(algorithm) is LegacyGetSelectivity
        assert algorithm.engine == "legacy"

    def test_create_rejects_unknown_engine(self, two_table_pool):
        with pytest.raises(ValueError, match="engine"):
            GetSelectivity.create(two_table_pool, NIndError(), engine="quantum")

    def test_legacy_kwarg_is_removed(self, two_table_pool):
        with pytest.raises(TypeError, match="legacy"):
            GetSelectivity(two_table_pool, NIndError(), legacy=True)

    def test_estimator_legacy_kwarg_is_removed(
        self, two_table_db, two_table_pool
    ):
        with pytest.raises(TypeError, match="legacy"):
            SITEstimator(
                two_table_db, two_table_pool, NIndError(), legacy=True
            )

    def test_plain_construction_does_not_warn(self, two_table_pool, recwarn):
        GetSelectivity(two_table_pool, NIndError())
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_estimator_engine_kwarg_is_removed(
        self, two_table_db, two_table_pool
    ):
        with pytest.raises(TypeError, match="engine"):
            SITEstimator(
                two_table_db, two_table_pool, NIndError(), engine="legacy"
            )


class TestFlatStatsRemoved:
    def test_get_selectivity_has_no_stats(self, two_table_pool, predicates):
        algorithm = GetSelectivity.create(two_table_pool, NIndError())
        algorithm(predicates)
        assert not hasattr(algorithm, "stats")
        snapshot = algorithm.stats_snapshot()
        assert "memo_entries" in snapshot.caches
        assert "matcher_calls" in snapshot.counters

    def test_estimator_has_no_stats(
        self, two_table_db, two_table_pool, predicates
    ):
        estimator = SITEstimator(two_table_db, two_table_pool, NIndError())
        estimator.algorithm(predicates)
        assert not hasattr(estimator, "stats")
        snapshot = estimator.stats_snapshot()
        assert snapshot.meta["estimator"] == estimator.name

    def test_memo_coupled_has_no_stats(self, two_table_db, two_table_pool):
        estimator = MemoCoupledEstimator(
            two_table_db, two_table_pool, NIndError()
        )
        assert not hasattr(estimator, "stats")
        snapshot = estimator.stats_snapshot()
        assert snapshot.meta["estimator"] == "MemoCoupled"


class TestPoolQueryShimsRemoved:
    def test_quartet_is_gone(self, two_table_pool):
        for name in (
            "for_attribute",
            "base",
            "with_expression_member",
            "expressions_for_attribute",
        ):
            assert not hasattr(two_table_pool, name)

    def test_find_conjunctive_criteria(
        self, two_table_pool, two_table_attrs, two_table_join
    ):
        attribute = two_table_attrs["Ra"]
        conditioned = two_table_pool.find(
            attribute, expression_superset=frozenset({two_table_join})
        )
        assert {sit.attribute for sit in conditioned} == {attribute}
        base_only = two_table_pool.find(attribute, base_only=True)
        assert all(sit.is_base for sit in base_only)
        assert two_table_pool.find(
            attribute, expression_superset=frozenset()
        ) == base_only

    def test_find_member(self, two_table_pool, two_table_join):
        members = two_table_pool.find(expression_member=two_table_join)
        assert members, "the fixture pool has SITs conditioned on the join"
        assert all(two_table_join in sit.expression for sit in members)

    def test_new_surface_is_silent(
        self, two_table_pool, two_table_attrs, recwarn
    ):
        attribute = two_table_attrs["Ra"]
        two_table_pool.find(attribute)
        two_table_pool.find_base(attribute)
        two_table_pool.find_expressions(attribute)
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestEstimatorShimRemoved:
    """``repro.core.estimator`` had its one release of grace and is gone."""

    def test_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.core.estimator  # noqa: F401

    def test_core_package_no_longer_exports_the_old_name(self):
        import repro
        import repro.core

        assert not hasattr(repro.core, "CardinalityEstimator")
        assert not hasattr(repro, "CardinalityEstimator")

    def test_factories_live_on_in_estimators(self, two_table_db, two_table_pool):
        from repro.estimators import make_gs_diff

        estimator = make_gs_diff(two_table_db, two_table_pool)
        assert isinstance(estimator, SITEstimator)


class TestClientShimsRemoved:
    """``Client``/``TCPClient`` had their release of grace and are gone;
    ``connect()`` is the only construction path."""

    def test_names_are_gone(self):
        import repro
        import repro.service
        import repro.service.client

        for module in (repro, repro.service, repro.service.client):
            assert not hasattr(module, "Client")
            assert not hasattr(module, "TCPClient")

    def test_import_raises(self):
        with pytest.raises(ImportError):
            from repro.service import Client  # noqa: F401
        with pytest.raises(ImportError):
            from repro.service import TCPClient  # noqa: F401

    def test_connect_replaces_in_process(self, two_table_pool, two_table_db):
        from repro.service import InProcessClient, connect

        assert not hasattr(InProcessClient, "in_process")
        with connect(two_table_pool, database=two_table_db) as client:
            assert isinstance(client, InProcessClient)


class TestFlatHealingConfigRemoved:
    """The flat healing knobs had their release of grace and moved into
    a nested ``healing`` block, which went with the self-healing tier:
    neither spelling is accepted."""

    FLAT = (
        "breaker_threshold",
        "breaker_window_s",
        "requeue_limit",
        "max_worker_restarts",
    )

    def test_flat_kwargs_are_rejected(self):
        from repro.service import ServiceConfig

        for name in self.FLAT:
            with pytest.raises(TypeError, match=name):
                ServiceConfig(**{name: 1})

    def test_flat_attributes_are_gone(self):
        import repro
        import repro.service
        from repro.service import ServiceConfig

        config = ServiceConfig()
        for name in (*self.FLAT, "healing"):
            assert not hasattr(config, name)
        assert not hasattr(repro.service, "HealingConfig")
        assert not hasattr(repro, "HealingConfig")

    def test_no_init_monkey_patch_left(self):
        import repro.service.config as config

        for name in ("_LEGACY_HEALING_KWARGS", "_shimmed_init", "_deprecated"):
            assert not hasattr(config, name)


class TestDeprecatedHelperRemoved:
    def test_helper_is_gone(self):
        import repro.obs
        import repro.obs.snapshot

        assert not hasattr(repro.obs, "deprecated")
        assert not hasattr(repro.obs.snapshot, "deprecated")
