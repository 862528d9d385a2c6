"""Typed request/response shapes and the JSON-lines wire codec.

One request or response per line, UTF-8 JSON.  The same shapes back the
in-process path (dataclasses + typed exceptions) and the TCP path (their
``to_wire`` / ``from_wire`` encodings), so a client cannot observe which
transport it is on.

Requests::

    {"id": "7", "sql": "SELECT ...", "timeout_ms": 250}
    {"id": "7b", "predicates": [{"kind": "filter", ...}, ...]}
    {"id": "8", "op": "stats"}
    {"id": "9", "op": "ping"}

``timeout_ms`` is optional; when present it must be a JSON number (not a
boolean, not NaN), or the request is answered ``invalid``.

``predicates`` is the pre-parsed alternative to ``sql``: a list of
predicate objects in the same JSON spelling the catalog files use
(:mod:`repro.stats.io`; infinities as ``"inf"``/``"-inf"``), for a
client that already holds bound predicates and would rather the server
skip SQL parsing; :func:`encode_predicates` / :func:`decode_predicates`
are the codec.

Responses::

    {"id": "7", "ok": true, "status": "ok", "selectivity": ..,
     "cardinality": .., "error": .., "snapshot_version": 3,
     "latency_ms": 1.8, "degradation_level": 0}
    {"id": "7", "ok": false, "status": "overloaded", "detail": "..."}
    {"id": "7", "ok": false, "status": "deadline_exceeded", "detail": "..."}
    {"id": "7", "ok": false, "status": "invalid", "detail": "..."}
    {"id": "7", "ok": false, "status": "closed", "detail": "..."}

``status`` is the machine-readable discriminator; ``ok`` is redundant
convenience for one-line clients.

Pipelining: a client may write any number of request lines before
reading.  The server handles the lines one socket read delivers as a
*group*: the group's answers are written together, in request order,
once its slowest member is resolved — each line under its own ``id`` and
``status``, so one shed or malformed member costs the others nothing.
Groups of one connection may overlap and complete out of order; clients
correlate on ``id``.

``degradation_level`` reports how the estimate was produced when
statistics fault mid-request (see :mod:`repro.resilience.ladder` and
DESIGN.md §12): ``0`` = the normal path, ``1`` = re-planned without the
failed SITs (their names ride along in ``excluded_sits``), ``2`` = base
histograms under independence, ``3`` = magic constants.  A degraded
answer is still ``status: ok`` — the ladder's contract is that a
labelled estimate beats a failure.

Backend provenance (two more optional fields): ``backend`` names the
estimator implementation that produced the answer (``"sit"``, ``"bn"``,
``"sample"``, or ``"magic"`` for a level-3 constant answer; see
:mod:`repro.estimators`), and ``error_bound`` carries the sampling
backend's distribution-free additive guarantee (``|est - true| <=
error_bound`` with the configured confidence).  ``backend`` is emitted
only when it differs from the default ``"sit"`` and ``error_bound``
only when the backend provides one, so default-backend responses are
byte-identical to earlier releases.

Bounded-staleness provenance (one more optional field):
``staleness_s`` carries the worst pending-write age, in seconds, over
the base tables the query touched — the gap between the answer's
serving snapshot and the newest acked-but-unapplied table update in
the streaming-ingestion pipeline (:mod:`repro.ingest`; see DESIGN.md
§14).  ``0.0`` means every acked write was applied before this answer;
the field is emitted only when a :class:`repro.obs.StalenessTracker`
is attached (``service.attach_staleness``), so deployments without streaming
ingestion stay byte-identical to earlier releases.

``plan_cache_hit`` (boolean, always present in ok responses) reports
whether the answer was replayed from a compiled template plan
(:mod:`repro.core.plancache`) instead of a fresh DP run.  Replay is
bit-identical to the full path, so the field is diagnostic only —
clients use it to audit steady-state latency, never correctness.

``batch_size`` and ``deduplicated`` describe the micro-batch a worker
answered the request in.  A hit whose plan is in the plan cache the
workers of the serving snapshot share is answered on arrival instead,
without a worker or a batch: it reports ``batch_size`` 1 and
``deduplicated`` false.

Transport loss is *client-side*
(:class:`repro.service.client.TransportError`) and never appears as a
wire status; the vocabulary above is closed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping

# ----------------------------------------------------------------------
# Status vocabulary
# ----------------------------------------------------------------------
STATUS_OK = "ok"
STATUS_OVERLOADED = "overloaded"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_INVALID = "invalid"
STATUS_CLOSED = "closed"

#: statuses a served request can terminate with
STATUSES = (
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_DEADLINE,
    STATUS_INVALID,
    STATUS_CLOSED,
)


# ----------------------------------------------------------------------
# Typed failures (the in-process spelling of non-ok responses)
# ----------------------------------------------------------------------
class ServiceError(Exception):
    """Base of every typed serving failure."""

    status = "error"

    @property
    def detail(self) -> str:
        return str(self)


class Overloaded(ServiceError):
    """Admission control shed the request: the bounded queue was full.

    This is the *typed* load-shedding response — the service answers
    immediately instead of buffering without bound or hanging.
    """

    status = STATUS_OVERLOADED


class DeadlineExceeded(ServiceError):
    """The request's deadline passed before a worker reached it."""

    status = STATUS_DEADLINE


class InvalidRequest(ServiceError):
    """The request could not be parsed/bound against the schema."""

    status = STATUS_INVALID


class ServiceClosed(ServiceError):
    """The service is shutting down (or gone) and not admitting work."""

    status = STATUS_CLOSED


#: wire status -> exception type, for client-side re-raising
ERRORS_BY_STATUS: Mapping[str, type[ServiceError]] = {
    STATUS_OVERLOADED: Overloaded,
    STATUS_DEADLINE: DeadlineExceeded,
    STATUS_INVALID: InvalidRequest,
    STATUS_CLOSED: ServiceClosed,
}


def error_from_status(status: str, detail: str) -> ServiceError:
    """Rehydrate a typed failure from its wire status."""
    return ERRORS_BY_STATUS.get(status, ServiceError)(detail)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServedEstimate:
    """A successful estimation answer.

    ``selectivity`` / ``cardinality`` / ``error`` are bit-identical to a
    direct :class:`~repro.estimators.sit.SITEstimator` call on the
    snapshot identified by ``snapshot_version`` (the parity tests pin
    this).
    """

    selectivity: float
    cardinality: float
    error: float
    snapshot_version: int
    latency_ms: float
    #: requests the answering micro-batch carried (1 = no coalescing,
    #: and for an answer served on arrival, which had no batch)
    batch_size: int = 1
    #: True when this answer was deduplicated off another request's DP
    #: run within the same micro-batch
    deduplicated: bool = False
    #: graceful-degradation ladder level that produced this estimate
    #: (0 = normal path, 1 = re-plan without the failed SITs, 2 = base
    #: statistics + independence, 3 = magic constants; see
    #: :mod:`repro.resilience.ladder`)
    degradation_level: int = 0
    #: SIT names excluded by level-1 re-planning (empty on level 0)
    excluded_sits: tuple[str, ...] = ()
    #: True when this answer was replayed from a compiled plan
    #: (:mod:`repro.core.plancache`) instead of a fresh DP run; the
    #: replay is bit-identical, so this is purely diagnostic
    plan_cache_hit: bool = False
    #: estimator backend that produced this answer (``"sit"``, ``"bn"``,
    #: ``"sample"``; ``"magic"`` marks a level-3 constant answer)
    backend: str = "sit"
    #: distribution-free additive guarantee of the sampling backend
    #: (``None`` for backends without one)
    error_bound: float | None = None
    #: worst-case serving-snapshot staleness (seconds) over the tables
    #: the query touched, measured by the ingest pipeline's
    #: :class:`repro.obs.StalenessTracker` (``None`` when no staleness
    #: tracking is wired — the field is omitted from the wire then, so
    #: payloads without streaming ingestion stay byte-identical)
    staleness_s: float | None = None

    @property
    def degraded(self) -> bool:
        return self.degradation_level > 0

    def to_wire(self, request_id: object = None) -> dict:
        payload: dict = {
            "ok": True,
            "status": STATUS_OK,
            "selectivity": self.selectivity,
            "cardinality": self.cardinality,
            "error": self.error,
            "snapshot_version": self.snapshot_version,
            "latency_ms": self.latency_ms,
            "batch_size": self.batch_size,
            "deduplicated": self.deduplicated,
            "degradation_level": self.degradation_level,
            "plan_cache_hit": self.plan_cache_hit,
        }
        if self.excluded_sits:
            payload["excluded_sits"] = list(self.excluded_sits)
        if self.backend != "sit":
            payload["backend"] = self.backend
        if self.error_bound is not None:
            payload["error_bound"] = self.error_bound
        if self.staleness_s is not None:
            payload["staleness_s"] = self.staleness_s
        if request_id is not None:
            payload["id"] = request_id
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping) -> "ServedEstimate":
        return cls(
            selectivity=float(payload["selectivity"]),
            cardinality=float(payload["cardinality"]),
            error=float(payload["error"]),
            snapshot_version=int(payload["snapshot_version"]),
            latency_ms=float(payload["latency_ms"]),
            batch_size=int(payload.get("batch_size", 1)),
            deduplicated=bool(payload.get("deduplicated", False)),
            degradation_level=int(payload.get("degradation_level", 0)),
            excluded_sits=tuple(payload.get("excluded_sits", ())),
            plan_cache_hit=bool(payload.get("plan_cache_hit", False)),
            backend=str(payload.get("backend", "sit")),
            error_bound=(
                None
                if payload.get("error_bound") is None
                else float(payload["error_bound"])
            ),
            staleness_s=(
                None
                if payload.get("staleness_s") is None
                else float(payload["staleness_s"])
            ),
        )


def failure_to_wire(exc: ServiceError, request_id: object = None) -> dict:
    payload: dict = {"ok": False, "status": exc.status, "detail": exc.detail}
    if request_id is not None:
        payload["id"] = request_id
    return payload


# ----------------------------------------------------------------------
# Predicate-set payloads (the parse-free request spelling)
# ----------------------------------------------------------------------
def encode_predicates(predicates) -> list[dict]:
    """Encode a predicate set for the ``predicates`` request field.

    Uses the catalog-file codec (:mod:`repro.stats.io`), so floats —
    including infinities — round-trip exactly and the decoded set
    rebuilds the *same* frozenset the sender held (bit-identical
    estimates depend on this).
    """
    from repro.stats.io import encode_predicate

    return [encode_predicate(p) for p in sorted(predicates, key=str)]


def decode_predicates(items) -> frozenset:
    """Decode a ``predicates`` request field back to a predicate set."""
    from repro.stats.io import PoolFormatError, decode_predicate

    if not isinstance(items, (list, tuple)) or not items:
        raise InvalidRequest("'predicates' must be a non-empty list")
    try:
        return frozenset(decode_predicate(item) for item in items)
    except (PoolFormatError, KeyError, TypeError, ValueError) as exc:
        raise InvalidRequest(f"bad predicate payload: {exc}") from exc


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
def encode_line(payload: Mapping) -> bytes:
    """One JSON object, newline-terminated, UTF-8."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


_INF = math.inf


def encode_served(answer: ServedEstimate, request_id: object = None) -> bytes:
    """The server's ok line for ``answer``: ``encode_line`` of
    ``answer.to_wire(request_id)``, byte for byte.

    Written directly rather than through ``json.dumps``, whose encoder
    calls back into Python for every float: on a hot answer that was
    most of the line's cost.  The direct spelling covers the answer the
    default deployment serves — finite ``float`` numbers, ``int``
    counters, ``bool`` flags, no optional field — under a ``str``,
    ``int`` or no id; any other answer (a non-finite float, a backend,
    bound, staleness or excluded SIT to report, an id of another
    type) is handed to ``encode_line`` instead, so the bytes are json's
    whatever the answer holds (``tests/service/test_wire_bytes.py``)."""
    selectivity = answer.selectivity
    cardinality = answer.cardinality
    error = answer.error
    latency_ms = answer.latency_ms
    if request_id is None:
        tail = ""
    elif type(request_id) is str:
        tail = ',"id":' + _quote(request_id)
    elif type(request_id) is int:
        tail = f',"id":{request_id}'
    else:
        tail = None
    if (
        tail is None
        or not (
            type(selectivity) is type(cardinality) is type(error)
            is type(latency_ms) is float
            and -_INF < selectivity < _INF
            and -_INF < cardinality < _INF
            and -_INF < error < _INF
            and -_INF < latency_ms < _INF
        )
        or not (
            type(answer.snapshot_version) is type(answer.batch_size)
            is type(answer.degradation_level) is int
        )
        or not (
            type(answer.deduplicated) is type(answer.plan_cache_hit) is bool
        )
        or answer.backend != "sit"
        or answer.error_bound is not None
        or answer.staleness_s is not None
        or answer.excluded_sits
    ):
        return encode_line(answer.to_wire(request_id))
    return (
        f'{{"ok":true,"status":"ok","selectivity":{selectivity!r},'
        f'"cardinality":{cardinality!r},"error":{error!r},'
        f'"snapshot_version":{answer.snapshot_version},'
        f'"latency_ms":{latency_ms!r},"batch_size":{answer.batch_size},'
        f'"deduplicated":{"true" if answer.deduplicated else "false"},'
        f'"degradation_level":{answer.degradation_level},'
        f'"plan_cache_hit":{"true" if answer.plan_cache_hit else "false"}'
        f"{tail}}}\n"
    ).encode()


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`InvalidRequest` on garbage."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise InvalidRequest("empty request line")
    try:
        payload = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer too long
        raise InvalidRequest(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidRequest("request must be a JSON object")
    return payload


def result_from_wire(payload: Mapping) -> ServedEstimate:
    """Client side: a wire response -> result, re-raising typed failures."""
    if payload.get("ok"):
        return ServedEstimate.from_wire(payload)
    raise error_from_status(
        str(payload.get("status", "error")), str(payload.get("detail", ""))
    )


__all__ = [
    "DeadlineExceeded",
    "ERRORS_BY_STATUS",
    "InvalidRequest",
    "Overloaded",
    "STATUSES",
    "STATUS_CLOSED",
    "STATUS_DEADLINE",
    "STATUS_INVALID",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "ServedEstimate",
    "ServiceClosed",
    "ServiceError",
    "decode_line",
    "decode_predicates",
    "encode_line",
    "encode_predicates",
    "encode_served",
    "error_from_status",
    "failure_to_wire",
    "result_from_wire",
]
