"""The fault-injection layer: determinism, budgets, targeting, arming."""

from __future__ import annotations

import random
import threading

import pytest

from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    HistogramCorrupt,
    INJECTION_POINTS,
    POINT_HISTOGRAM_JOIN,
    POINT_INGEST_APPLY,
    POINT_REFRESH_DURING_STORM,
    active,
    arm,
    armed,
    disarm,
    inject,
    request_key,
)


def one_shot(point=POINT_HISTOGRAM_JOIN, **kwargs) -> FaultPlan:
    return FaultPlan([FaultRule(point=point, **kwargs)], seed=7)


class TestFaultRule:
    def test_rejects_unknown_point(self):
        with pytest.raises(ValueError, match="injection point"):
            FaultRule(point="reactor_core")

    def test_rejects_the_removed_cluster_point(self):
        """Only the multi-process router injected ``swap_under_write``;
        with the router gone a plan naming it fails loudly."""
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultRule(point="swap_under_write")

    @pytest.mark.parametrize("point", ["worker_batch", "snapshot_pin"])
    def test_rejects_the_removed_service_points(self, point):
        """Only the fault plan ever raised at a worker batch or a
        snapshot pin; with the service's healing tier gone a plan naming
        either point fails loudly."""
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultRule(point=point)

    @pytest.mark.parametrize("point", ["sit_match", "catalog_save", "catalog_load"])
    def test_rejects_the_points_no_real_defect_reaches(self, point):
        """A pinned pool's SITs cannot go missing, and a torn catalog
        file is the real file's, cut: a plan naming any of these points
        fails loudly."""
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultRule(point=point)

    def test_rejects_unknown_fault(self):
        """A rule names no fault kind: every firing raises
        ``HistogramCorrupt``, and a document's ``fault`` key is refused."""
        with pytest.raises(TypeError):
            FaultRule(point=POINT_HISTOGRAM_JOIN, fault="gremlin")
        with pytest.raises(ValueError, match="'fault'"):
            FaultRule.from_dict({"point": "histogram_join", "fault": "gremlin"})

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultRule(point=POINT_HISTOGRAM_JOIN, probability=1.5)

    @pytest.mark.parametrize(
        "document, key",
        [
            ({"point": "histogram_join", "probabilty": 0.1}, "probabilty"),
            ({"point": "histogram_join", "after": 10}, "after"),
            ({"point": "histogram_join", "max_fire": None}, "max_fire"),
            ({"point": "histogram_join", "Match": "SIT(R.a"}, "Match"),
            ({"point": "histogram_join", "fault": "histogram_corrupt"}, "fault"),
        ],
    )
    def test_from_dict_rejects_an_unknown_key_by_name(self, document, key):
        """A misspelt key must not fall back to a default: a rule read
        without its ``probability`` would fire on every evaluation."""
        with pytest.raises(ValueError, match=repr(key)):
            FaultRule.from_dict(document)


class TestFiring:
    def test_certain_rule_fires_once(self):
        plan = one_shot()
        with pytest.raises(HistogramCorrupt) as excinfo:
            plan.check(POINT_HISTOGRAM_JOIN, detail="R.a")
        assert excinfo.value.injected is True
        assert excinfo.value.point == POINT_HISTOGRAM_JOIN
        # max_fires=1 (the default): the second check is a no-op
        plan.check(POINT_HISTOGRAM_JOIN, detail="R.a")
        assert plan.total_fires == 1
        assert plan.stats() == {"histogram_join": 1}

    def test_other_points_unaffected(self):
        plan = one_shot()
        plan.check(POINT_INGEST_APPLY)
        plan.check(POINT_REFRESH_DURING_STORM)
        assert plan.total_fires == 0

    def test_a_silent_rule_counts_evaluations_but_never_fires(self):
        plan = one_shot(probability=0.0, max_fires=None)
        for index in range(200):
            plan.check(POINT_HISTOGRAM_JOIN, detail=f"R.a-{index}", key=str(index))
        assert plan.rules[0].evaluations == 200
        assert plan.total_fires == 0 and plan.stats() == {}

    def test_match_targets_detail_and_sit_names(self):
        plan = FaultPlan(
            [FaultRule(point=POINT_HISTOGRAM_JOIN, match="SIT(R.a")], seed=0
        )
        plan.check(POINT_HISTOGRAM_JOIN, detail="S.b", sits=["SIT(S.b)"])
        assert plan.total_fires == 0
        with pytest.raises(HistogramCorrupt) as excinfo:
            plan.check(
                POINT_HISTOGRAM_JOIN,
                detail="R.a",
                sits=["SIT(R.a | J)", "SIT(S.b)"],
            )
        # the fault names a SIT the match selected, not an arbitrary one
        assert excinfo.value.sit_name == "SIT(R.a | J)"

    def test_every_point_raises_histogram_corrupt(self):
        """One fault kind: what a real defect at a point raises."""
        assert set(INJECTION_POINTS) == {
            "histogram_join",
            "ingest_apply",
            "refresh_during_storm",
        }
        for point in INJECTION_POINTS:
            plan = one_shot(point)
            with pytest.raises(HistogramCorrupt):
                plan.check(point, sits=["SIT(R.a)"])
            assert plan.stats() == {point: 1}


class TestDeterminism:
    def drive(self, plan: FaultPlan) -> list[str | None]:
        outcomes: list[str | None] = []
        for index in range(50):
            fault = plan.evaluate(
                POINT_HISTOGRAM_JOIN,
                detail=f"call-{index}",
                sits=["SIT(R.a)", "SIT(R.a | J)", "SIT(S.b)"],
            )
            outcomes.append(None if fault is None else fault.sit_name)
        return outcomes

    def test_same_seed_same_call_order_same_faults(self):
        make = lambda: FaultPlan(
            [
                FaultRule(
                    point=POINT_HISTOGRAM_JOIN, probability=0.3, max_fires=None
                )
            ],
            seed=1234,
        )
        first, second = self.drive(make()), self.drive(make())
        assert first == second
        assert any(name is not None for name in first)

    @staticmethod
    def calls() -> list[dict]:
        """Two points' worth of calls, each keyed by the request content
        it serves; several share a request, as one answer's SITs do."""
        sits = ["SIT(R.a)", "SIT(R.a | J)", "SIT(S.b)"]
        return [
            {
                "point": point,
                "detail": f"attribute-{index % 3}",
                "sits": sits[: 1 + index % 3],
                "key": request_key([f"R.a <= {index // 2}", "R.x = S.y"]),
            }
            for index in range(60)
            for point in (POINT_HISTOGRAM_JOIN, POINT_REFRESH_DURING_STORM)
        ]

    @staticmethod
    def content_plan() -> FaultPlan:
        return FaultPlan(
            [
                FaultRule(point=POINT_HISTOGRAM_JOIN, probability=0.3, max_fires=None),
                FaultRule(
                    point=POINT_REFRESH_DURING_STORM,
                    probability=0.2,
                    max_fires=None,
                ),
            ],
            seed=2004,
        )

    @staticmethod
    def faulted(plan: FaultPlan, calls) -> set[tuple]:
        out = set()
        for call in calls:
            fault = plan.evaluate(**call)
            if fault is not None:
                out.add((call["key"], call["point"], call["detail"], fault.sit_name))
        return out

    def test_shuffled_calls_fault_the_same_requests(self):
        calls = self.calls()
        expected = self.faulted(self.content_plan(), calls)
        assert expected, "the plan never fired"
        shuffled = list(calls)
        random.Random(5).shuffle(shuffled)
        assert self.faulted(self.content_plan(), shuffled) == expected

    def test_calls_split_across_two_threads_fault_the_same_requests(self):
        calls = self.calls()
        expected = self.faulted(self.content_plan(), calls)
        plan = self.content_plan()
        halves = [set(), set()]
        threads = [
            threading.Thread(
                target=lambda i=i: halves[i].update(
                    self.faulted(plan, calls[i::2])
                )
            )
            for i in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert halves[0] | halves[1] == expected
        assert plan.total_fires == len(expected)

    def test_different_seeds_differ(self):
        plans = [
            FaultPlan(
                [
                    FaultRule(
                        point=POINT_HISTOGRAM_JOIN,
                        probability=0.5,
                        max_fires=None,
                    )
                ],
                seed=seed,
            )
            for seed in (1, 2)
        ]
        assert self.drive(plans[0]) != self.drive(plans[1])


class TestPlanDocuments:
    def test_parse_inline_json(self):
        plan = FaultPlan.parse(
            '{"seed": 3, "rules": [{"point": "histogram_join", '
            '"probability": 0.25, "max_fires": null, "match": "SIT(R.a"}]}'
        )
        assert plan.seed == 3
        assert plan.rules == [
            FaultRule(
                point=POINT_HISTOGRAM_JOIN,
                probability=0.25,
                max_fires=None,
                match="SIT(R.a",
            )
        ]

    @pytest.mark.parametrize(
        "document, key",
        [
            ('{"sed": 3, "rules": []}', "sed"),
            ('{"seed": 3, "rule": [{"point": "sit_match"}]}', "rule"),
            ('{"rules": [{"point": "sit_match", "after": 5}]}', "after"),
        ],
    )
    def test_parse_rejects_an_unknown_key_by_name(self, document, key):
        with pytest.raises(ValueError, match=repr(key)):
            FaultPlan.parse(document)

    def test_parse_rejects_a_rule_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.parse('{"rules": ["histogram_join"]}')

    def test_parse_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 5, "rules": []}')
        assert FaultPlan.parse(str(path)).seed == 5


class TestArming:
    def test_disarmed_by_default(self):
        assert active() is None
        inject(POINT_HISTOGRAM_JOIN)  # no-op

    def test_arm_disarm(self):
        plan = one_shot()
        arm(plan)
        assert active() is plan
        with pytest.raises(HistogramCorrupt):
            inject(POINT_HISTOGRAM_JOIN)
        disarm()
        assert active() is None

    def test_armed_context_restores_previous(self):
        outer, inner = one_shot(), one_shot()
        arm(outer)
        with armed(inner):
            assert active() is inner
        assert active() is outer
        disarm()
