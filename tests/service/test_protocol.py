"""Wire codec and typed-failure round trips."""

from __future__ import annotations

import pytest

from repro.service.protocol import (
    ERRORS_BY_STATUS,
    STATUS_CLOSED,
    STATUS_DEADLINE,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUSES,
    DeadlineExceeded,
    InvalidRequest,
    Overloaded,
    ServedEstimate,
    ServiceClosed,
    ServiceError,
    decode_line,
    decode_predicates,
    encode_line,
    error_from_status,
    failure_to_wire,
    result_from_wire,
)


def sample_estimate(**overrides) -> ServedEstimate:
    base = dict(
        selectivity=0.125,
        cardinality=12500.0,
        error=0.03,
        snapshot_version=3,
        latency_ms=1.75,
        batch_size=8,
        deduplicated=True,
    )
    base.update(overrides)
    return ServedEstimate(**base)


class TestCodec:
    def test_encode_decode_round_trip(self):
        payload = {"id": "7", "op": "estimate", "sql": "SELECT 1"}
        line = encode_line(payload)
        assert line.endswith(b"\n")
        assert decode_line(line) == payload

    def test_decode_rejects_garbage(self):
        with pytest.raises(InvalidRequest):
            decode_line(b"not json\n")
        with pytest.raises(InvalidRequest):
            decode_line(b"\n")
        with pytest.raises(InvalidRequest):
            decode_line(b"[1, 2, 3]\n")

    def test_decode_accepts_str(self):
        assert decode_line('{"op": "ping"}') == {"op": "ping"}


class TestPredicatePayloads:
    FILTER = {"kind": "filter", "table": "R", "column": "a", "low": 10.0, "high": 40.0}

    @pytest.mark.parametrize(
        "bound, value",
        [
            ("low", float("nan")),
            ("high", float("nan")),
            ("low", "nan"),
            ("high", "NaN"),
        ],
    )
    def test_a_nan_bound_is_invalid(self, bound, value):
        """``low > high`` is false for NaN, so only the bound's own
        decode can refuse it; the request is invalid, not a range."""
        with pytest.raises(InvalidRequest, match="not a number"):
            decode_predicates([{**self.FILTER, bound: value}])


class TestServedEstimate:
    def test_wire_round_trip_is_lossless(self):
        estimate = sample_estimate()
        wire = estimate.to_wire("42")
        assert wire["id"] == "42"
        assert wire["ok"] is True
        assert wire["status"] == STATUS_OK
        assert ServedEstimate.from_wire(wire) == estimate

    def test_result_from_wire_ok(self):
        estimate = sample_estimate()
        assert result_from_wire(estimate.to_wire()) == estimate

    def test_optional_fields_default(self):
        wire = sample_estimate().to_wire()
        del wire["batch_size"], wire["deduplicated"]
        decoded = ServedEstimate.from_wire(wire)
        assert decoded.batch_size == 1
        assert decoded.deduplicated is False


class TestFailures:
    def test_status_vocabulary_is_pinned(self):
        assert set(STATUSES) == {
            STATUS_OK,
            STATUS_OVERLOADED,
            STATUS_DEADLINE,
            STATUS_INVALID,
            STATUS_CLOSED,
        }
        assert set(ERRORS_BY_STATUS) == set(STATUSES) - {STATUS_OK}

    @pytest.mark.parametrize(
        "exc_type",
        [Overloaded, DeadlineExceeded, InvalidRequest, ServiceClosed],
    )
    def test_typed_failure_round_trip(self, exc_type):
        original = exc_type("something went wrong")
        wire = failure_to_wire(original, request_id="9")
        assert wire == {
            "ok": False,
            "status": exc_type.status,
            "detail": "something went wrong",
            "id": "9",
        }
        with pytest.raises(exc_type, match="something went wrong"):
            result_from_wire(wire)

    def test_unknown_status_degrades_to_service_error(self):
        exc = error_from_status("martian", "??")
        assert type(exc) is ServiceError
        with pytest.raises(ServiceError):
            result_from_wire({"ok": False, "status": "martian", "detail": "??"})
