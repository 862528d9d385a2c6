"""An ok response's bytes are json's, whichever way they are written.

The server writes an answer's line directly
(:func:`~repro.service.protocol.encode_served`) instead of through
``json.dumps``; the bytes must be exactly ``encode_line`` of
``answer.to_wire(id)`` for any answer and any id.  What the direct writer
does not cover (non-finite floats, excluded SITs, ids that are neither
strings nor integers, …) falls back to ``encode_line`` itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import socket
from concurrent.futures import Future

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import EstimationService, ServiceConfig
from repro.service.protocol import (
    ServedEstimate,
    decode_line,
    decode_request,
    encode_line,
    encode_request,
    encode_served,
    result_from_wire,
)
from repro.service.server import EstimationServer, start_in_thread

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN {} AND {}"

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, 3.0, 1e16]
FLOATS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(),  # with inf and NaN, which fall back
    st.integers(-(10**20), 10**20).map(float),  # integral values
)
NUMBERS = st.one_of(FLOATS, FLOATS, FLOATS, st.integers(-5, 5))
TEXT = st.text(max_size=8) | st.sampled_from(['"', '\\"q\\"', "é", "日本", "\x00\n"])
IDS = st.one_of(
    st.none(),
    TEXT,
    st.integers(-(10**30), 10**30),
    st.sampled_from([True, 1.5, ["a"], {"k": 1}]),  # json writes these
)
answers = st.builds(
    ServedEstimate,
    selectivity=NUMBERS,
    cardinality=NUMBERS,
    error=NUMBERS,
    snapshot_version=st.integers(0, 2**40),
    latency_ms=NUMBERS,
    batch_size=st.integers(1, 512),
    deduplicated=st.booleans(),
    degradation_level=st.sampled_from([0, 2, 3]),
    plan_cache_hit=st.booleans(),
    backend=st.sampled_from(["sit", "sit", "bn", "sample", "magic"]) | TEXT,
    error_bound=st.none() | FLOATS,
    staleness_s=st.none() | FLOATS,
)


def expected_line(answer: ServedEstimate, request_id) -> bytes:
    """What the server wrote before: the wire dict."""
    return encode_line(answer.to_wire(request_id))


def server() -> EstimationServer:
    """A server around no service: only its line writing is exercised."""
    return EstimationServer(None, host="127.0.0.1", port=0)


HOT = ServedEstimate(
    0.0123456789, 12345.678901, 0.5, 3, 0.0423, plan_cache_hit=True
)


class TestDirectLines:
    @settings(max_examples=1500, deadline=None)
    @given(answers, IDS)
    @example(HOT, "17")
    @example(HOT, 'he said "hi"')
    @example(HOT, "naïve ✓")
    @example(HOT, 7)
    @example(HOT, None)
    @example(dataclasses.replace(HOT, selectivity=-0.0, error=5e-324), "x")
    @example(dataclasses.replace(HOT, cardinality=1e300, latency_ms=2.0), "x")
    @example(dataclasses.replace(HOT, selectivity=math.inf), "x")
    @example(dataclasses.replace(HOT, error=math.nan), "x")
    @example(
        dataclasses.replace(
            HOT,
            backend="sample",
            error_bound=0.25,
            staleness_s=0.0,
        ),
        "x",
    )
    @example(dataclasses.replace(HOT, backend="bn", staleness_s=1.5), "x")
    def test_bytes_are_encode_line_of_to_wire(self, answer, request_id):
        expected = expected_line(answer, request_id)
        assert encode_served(answer, request_id) == expected
        # the server's own response line, from the answer as a value and
        # from a resolved future (the on-arrival and queued spellings)
        front = server()
        assert front._estimate_line(request_id, answer) == expected
        future = Future()
        future.set_result(answer)
        assert front._estimate_line(request_id, future) == expected

    def test_a_hot_answer_takes_the_direct_path(self, monkeypatch):
        """The default deployment's answer never reaches ``json.dumps``."""
        import repro.service.protocol as protocol

        def refuse(*_args, **_kwargs):
            raise AssertionError("json.dumps was called")

        expected = expected_line(HOT, "17")
        monkeypatch.setattr(protocol.json, "dumps", refuse)
        assert encode_served(HOT, "17") == expected
        assert encode_served(HOT, 9) == (
            b'{"ok":true,"status":"ok","selectivity":0.0123456789,'
            b'"cardinality":12345.678901,"error":0.5,"snapshot_version":3,'
            b'"latency_ms":0.0423,"batch_size":1,"deduplicated":false,'
            b'"degradation_level":0,"plan_cache_hit":true,"id":9}\n'
        )


SQL_TEXT = st.text(max_size=40) | st.sampled_from(
    ['SELECT "q"', "a\\b", "é ✓ 日本", "\x00\n\t\u2028", "", SQL.format(1, 2)]
)
requests = st.one_of(
    st.fixed_dictionaries({"op": st.just("estimate"), "sql": SQL_TEXT, "id": TEXT}),
    st.fixed_dictionaries({"op": st.just("estimate"), "sql": SQL_TEXT, "id": IDS}),
    st.fixed_dictionaries(
        {"op": st.just("estimate"), "sql": SQL_TEXT | st.integers() | st.none(), "id": TEXT}
    ),
    st.fixed_dictionaries(
        {"op": st.just("estimate"), "sql": SQL_TEXT, "timeout_ms": FLOATS, "id": TEXT}
    ),
    st.fixed_dictionaries({"sql": SQL_TEXT, "op": st.just("estimate"), "id": TEXT}),
    st.fixed_dictionaries({"op": st.sampled_from(["ping", "stats", "x"]), "sql": SQL_TEXT, "id": TEXT}),
    st.fixed_dictionaries({"sql": SQL_TEXT, "id": TEXT}),
    st.fixed_dictionaries({"op": st.just("estimate"), "predicates": st.just([]), "id": TEXT}),
)


def fields_and_types(answer: ServedEstimate) -> list:
    """Every field as its type and ``repr``: ``-0.0`` is not ``0.0``, NaN
    is NaN, and an int where a float belongs is caught."""
    return [
        (type(value), repr(value))
        for value in (getattr(answer, f.name) for f in dataclasses.fields(answer))
    ]


class TestClientCodec:
    """The client writes an SQL estimate's line directly, and reads an
    answer back through ``ServedEstimate``'s written-out constructor:
    both must be exactly what the general codec gives."""

    @settings(max_examples=1500, deadline=None)
    @given(requests)
    @example({"op": "estimate", "sql": 'SELECT "q" FROM é', "id": 'naïve "7"'})
    @example({"op": "estimate", "sql": SQL.format(18, 40), "id": "17"})
    def test_request_bytes_are_encode_line(self, payload):
        assert encode_request(payload) == encode_line(payload)

    @settings(max_examples=1500, deadline=None)
    @given(requests, st.binary(max_size=12), st.integers(0, 80))
    @example({"op": "estimate", "sql": "\x7f \u2028", "id": "1"}, b"", 0)
    @example({"op": "estimate", "sql": "é", "id": "1"}, b"\xff\xfe", 25)
    @example({"op": "estimate", "sql": "a", "id": "1"}, b"\x01", 25)
    def test_the_server_reads_a_request_as_json_does(self, payload, junk, at):
        """``decode_request`` is ``decode_line``: on the client's lines,
        and on those lines with bytes spliced in anywhere."""
        line = encode_request(payload).rstrip(b"\n")
        for candidate in (line, line[:at] + junk + line[at:]):
            try:
                expected = decode_line(candidate)
            except Exception as exc:  # the oracle's refusal
                expected = (type(exc), str(exc))
            try:
                got = decode_request(candidate)
            except Exception as exc:
                got = (type(exc), str(exc))
            assert got == expected and list(got) == list(expected)

    @settings(max_examples=1500, deadline=None)
    @given(answers, IDS)
    @example(HOT, "17")
    @example(dataclasses.replace(HOT, selectivity=-0.0, error=5e-324), 'he said "hi"')
    @example(dataclasses.replace(HOT, cardinality=-0.0, latency_ms=5e-324), "naïve ✓")
    @example(dataclasses.replace(HOT, snapshot_version=2**70), "x")
    @example(dataclasses.replace(HOT, error=math.nan), "x")
    def test_an_answer_round_trips_field_for_field(self, answer, request_id):
        """What the client reads is the server's answer, each number of
        its field's type (an integral float field comes back a float)."""
        sent = dataclasses.replace(
            answer,
            **{
                name: float(getattr(answer, name))
                for name in ("selectivity", "cardinality", "error", "latency_ms")
            },
            error_bound=None if answer.error_bound is None else float(answer.error_bound),
            staleness_s=None if answer.staleness_s is None else float(answer.staleness_s),
        )
        received = result_from_wire(decode_line(encode_served(answer, request_id)))
        assert fields_and_types(received) == fields_and_types(sent)


class TestServerOverTcp:
    def test_a_pipelined_group_of_hits(self, service_catalog):
        """The server answers a pipelined group of hits: every line is
        the bytes the dict spelling wrote."""
        service = EstimationService(
            service_catalog, config=ServiceConfig(workers=1)
        )
        ids = ["a", 'quote"d', "naïve", 7, None, "b", 8, "c"]
        with start_in_thread(service, port=0) as handle, (
            socket.create_connection(handle.address, timeout=30.0)
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(encode_line({"id": "warm", "sql": SQL.format(1, 50)}))
            assert decode_line(reader.readline())["plan_cache_hit"] is False
            sock.sendall(
                b"".join(
                    encode_line(
                        {"sql": SQL.format(index, 30 + index)}
                        if request_id is None
                        else {"id": request_id, "sql": SQL.format(index, 30 + index)}
                    )
                    for index, request_id in enumerate(ids)
                )
            )
            lines = [reader.readline() for _ in ids]
        for request_id, line in zip(ids, lines):
            response = json.loads(line)
            assert response.get("id") == request_id
            assert response["plan_cache_hit"] is True
            answer = ServedEstimate.from_wire(response)
            assert line == expected_line(answer, request_id)
