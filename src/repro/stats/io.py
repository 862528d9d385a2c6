"""Serialization of SITs, pools and catalog documents.

Statistics are built once and used across many optimization sessions, so
they must survive a process restart.  The format is plain JSON — buckets
are small (≤ 200 per SIT) and portability beats compactness here.

Version 2 layout (the current writer)::

    {"version": 2,
     "catalog": {"catalog_version": 3,
                 "table_versions": {"orders": 1, ...}},
     "sits": [{"attribute": {"table": ..., "column": ...},
               "diff": 0.42,
               "expression": [<predicate>, ...],
               "histogram": {"null_count": 0.0,
                              "buckets": [[low, high, frequency, distinct], ...]},
               "meta": {"built_at": 1733.2,
                        "build_seconds": 0.004,
                        "build_method": "full" | "sampled",
                        "source_versions": {"orders": 1, ...}}},
              ...]}

Version 1 (the pre-catalog format) carried no ``catalog`` block and no
per-SIT ``meta``; it still loads through the explicit
:func:`migrate_v1_to_v2` step, which synthesizes conservative metadata
(``build_method="full"``, ``built_at=0.0``, empty source versions — i.e.
"provenance unknown, treat as potentially stale").

Predicates serialize as ``{"kind": "filter"|"join", ...}``.  Infinities
round-trip through the strings ``"-inf"``/``"inf"`` (JSON has no inf).

Crash safety (:mod:`repro.resilience`):

* **atomic saves** — :func:`save_document` / :func:`save_pool` write
  through :func:`atomic_write_text`: tempfile in the target directory,
  ``fsync``, then ``os.replace``.  A crash mid-save leaves either the
  old file or the new file, never a torn hybrid;
* **per-SIT checksums** — the v2 writer stamps every SIT record with a
  CRC-32 over its canonical JSON; :func:`decode_sit` verifies it, so a
  flipped bit inside a histogram surfaces as a typed
  :class:`PoolFormatError` instead of a silently wrong estimate.
  Records without a checksum (older v2 files, v1 migrations) still load;
* **load-time quarantine** — ``loads_document(text, quarantine=True)``
  salvages what it can from a torn or corrupt file: complete SIT
  records load, truncated/corrupt ones are skipped and reported in
  :attr:`CatalogDocument.quarantined` instead of failing the whole
  load.  The default stays strict (raise on first defect).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.resilience.faults import (
    POINT_CATALOG_LOAD,
    POINT_CATALOG_SAVE,
    active as _fault_plan,
)

from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    Predicate,
)
from repro.histograms.base import Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

FORMAT_VERSION = 2
#: every version :func:`loads_pool` / :func:`loads_document` accepts
SUPPORTED_VERSIONS = (1, 2)


class PoolFormatError(ValueError):
    """Raised when a serialized pool cannot be decoded."""


def _encode_float(value: float) -> Any:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def _decode_float(value: Any) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def _encode_predicate(predicate: Predicate) -> dict:
    if isinstance(predicate, FilterPredicate):
        return {
            "kind": "filter",
            "table": predicate.attribute.table,
            "column": predicate.attribute.column,
            "low": _encode_float(predicate.low),
            "high": _encode_float(predicate.high),
        }
    if isinstance(predicate, JoinPredicate):
        return {
            "kind": "join",
            "left_table": predicate.left.table,
            "left_column": predicate.left.column,
            "right_table": predicate.right.table,
            "right_column": predicate.right.column,
        }
    raise PoolFormatError(f"unknown predicate type {type(predicate).__name__}")


def _decode_predicate(data: dict) -> Predicate:
    kind = data.get("kind")
    if kind == "filter":
        return FilterPredicate(
            Attribute(data["table"], data["column"]),
            _decode_float(data["low"]),
            _decode_float(data["high"]),
        )
    if kind == "join":
        return JoinPredicate(
            Attribute(data["left_table"], data["left_column"]),
            Attribute(data["right_table"], data["right_column"]),
        )
    raise PoolFormatError(f"unknown predicate kind {kind!r}")


#: Public aliases: the wire protocol (:mod:`repro.service.protocol`)
#: reuses this codec for predicate-set request payloads, keeping one
#: canonical JSON spelling of a predicate across disk and wire.
encode_predicate = _encode_predicate
decode_predicate = _decode_predicate


def _encode_histogram(histogram: Histogram) -> dict:
    return {
        "null_count": histogram.null_count,
        "buckets": [
            [
                _encode_float(b.low),
                _encode_float(b.high),
                b.frequency,
                b.distinct,
            ]
            for b in histogram.buckets
        ],
    }


def _bucket_columns(buckets: Any) -> np.ndarray:
    """``[[low, high, frequency, distinct], ...]`` as a ``(4, n)`` float
    array, each value read as ``float()`` reads it (``"inf"`` included),
    so a malformed table raises exactly where ``float()`` and tuple
    unpacking do."""
    table = np.array(
        [
            [float(low), float(high), float(frequency), float(distinct)]
            for low, high, frequency, distinct in buckets
        ],
        dtype=np.float64,
    )
    return np.ascontiguousarray(table.reshape(-1, 4).T)


def _decode_histogram(data: dict) -> Histogram:
    """A histogram over the payload's bucket columns, with no ``Bucket``
    object built: the checks ``Bucket`` and ``Histogram`` make run on
    whole columns."""
    try:
        lows, highs, frequencies, distincts = _bucket_columns(data["buckets"])
        null_count = float(data.get("null_count", 0.0))
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise PoolFormatError(f"bad histogram payload: {error}") from error
    if np.any(lows > highs):
        raise PoolFormatError("bad histogram payload: bucket with low > high")
    if np.any(frequencies < 0) or np.any(distincts < 0):
        raise PoolFormatError(
            "bad histogram payload: bucket frequency/distinct must be non-negative"
        )
    try:
        return Histogram.from_arrays(
            lows, highs, frequencies, distincts, null_count=null_count
        )
    except ValueError as error:
        raise PoolFormatError(f"bad histogram payload: {error}") from error


# ----------------------------------------------------------------------
# Per-SIT build metadata (the catalog's provenance record)
# ----------------------------------------------------------------------
#: synthesized for v1 payloads and for SITs added without provenance
DEFAULT_SIT_META = {
    "built_at": 0.0,
    "build_seconds": 0.0,
    "build_method": "full",
    "source_versions": {},
}


def _sit_checksum(payload: dict) -> int:
    """CRC-32 of a SIT record's canonical JSON.

    Covers the estimate-affecting core (attribute, diff, expression,
    histogram); the advisory ``meta`` block and the ``checksum`` field
    itself are excluded, so v1→v2 migration (which synthesizes ``meta``)
    does not invalidate existing stamps and meta defects surface as
    *meta* errors rather than masquerading as corruption.
    """
    body = json.dumps(
        {
            key: value
            for key, value in payload.items()
            if key not in ("checksum", "meta")
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(body.encode("utf-8"))


def encode_sit(sit: SIT, meta: dict | None = None) -> dict:
    """Encode one SIT (plus optional catalog metadata) as a JSON dict.

    The record carries a ``checksum`` (CRC-32 over its canonical JSON)
    so load-time corruption is detected per SIT instead of poisoning
    whole-file loads.
    """
    payload = {
        "attribute": {"table": sit.attribute.table, "column": sit.attribute.column},
        "diff": sit.diff,
        "expression": [
            _encode_predicate(p) for p in sorted(sit.expression, key=str)
        ],
        "histogram": _encode_histogram(sit.histogram),
    }
    if meta is not None:
        payload["meta"] = {
            "built_at": float(meta.get("built_at", 0.0)),
            "build_seconds": float(meta.get("build_seconds", 0.0)),
            "build_method": str(meta.get("build_method", "full")),
            "source_versions": {
                str(table): int(version)
                for table, version in sorted(
                    dict(meta.get("source_versions", {})).items()
                )
            },
        }
    payload["checksum"] = _sit_checksum(payload)
    return payload


def decode_sit(data: dict) -> SIT:
    """Decode one SIT; raises :class:`PoolFormatError` on bad payloads.

    Records carrying a ``checksum`` are verified against it first —
    a mismatch means on-disk corruption and fails the record before any
    partially-decoded histogram can leak into a pool.  Records without
    one (older v2 files, v1 migrations) skip the check.
    """
    recorded = data.get("checksum")
    if recorded is not None:
        try:
            expected = int(recorded)
        except (TypeError, ValueError) as error:
            raise PoolFormatError(
                f"bad SIT checksum field: {recorded!r}"
            ) from error
        actual = _sit_checksum(data)
        if actual != expected:
            raise PoolFormatError(
                f"SIT checksum mismatch (stored {expected}, computed "
                f"{actual}): record is corrupt"
            )
    try:
        attribute = Attribute(
            data["attribute"]["table"], data["attribute"]["column"]
        )
        expression = frozenset(
            _decode_predicate(p) for p in data.get("expression", [])
        )
        return SIT(
            attribute,
            expression,
            _decode_histogram(data["histogram"]),
            diff=float(data.get("diff", 0.0)),
        )
    except (KeyError, TypeError) as error:
        raise PoolFormatError(f"bad SIT payload: {error}") from error


def decode_sit_meta(data: dict) -> dict:
    """The per-SIT ``meta`` block, defaults filled in."""
    meta = dict(DEFAULT_SIT_META)
    raw = data.get("meta")
    if isinstance(raw, dict):
        try:
            meta["built_at"] = float(raw.get("built_at", 0.0))
            meta["build_seconds"] = float(raw.get("build_seconds", 0.0))
            meta["build_method"] = str(raw.get("build_method", "full"))
            meta["source_versions"] = {
                str(table): int(version)
                for table, version in dict(
                    raw.get("source_versions", {})
                ).items()
            }
        except (TypeError, ValueError) as error:
            raise PoolFormatError(f"bad SIT meta payload: {error}") from error
    return meta


# ----------------------------------------------------------------------
# Versioning and migration
# ----------------------------------------------------------------------
def migrate_v1_to_v2(payload: dict) -> dict:
    """The explicit v1 → v2 migration.

    A v1 file predates the statistics catalog, so the migration
    synthesizes what v2 requires: an empty ``catalog`` block
    (``catalog_version`` 0, no table versions) and per-SIT default
    metadata marking the provenance as unknown (``built_at`` 0, full-scan
    build, no recorded source-table versions — a subsequent
    ``StatisticsCatalog.refresh`` will treat such SITs as up for rebuild
    only once a table update is actually observed).
    """
    if payload.get("version") != 1:
        raise PoolFormatError(
            f"migrate_v1_to_v2 expects a version-1 payload, got "
            f"{payload.get('version')!r}"
        )
    migrated = {
        "version": 2,
        "catalog": {"catalog_version": 0, "table_versions": {}},
        "sits": [
            {**entry, "meta": dict(DEFAULT_SIT_META)}
            for entry in payload.get("sits", [])
        ],
    }
    return migrated


def _checked_payload(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise PoolFormatError(f"not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise PoolFormatError("top-level payload must be an object")
    version = payload.get("version")
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise PoolFormatError(
            f"unsupported format version {version!r}; "
            f"supported versions: {supported}"
        )
    if version == 1:
        payload = migrate_v1_to_v2(payload)
    return payload


# ----------------------------------------------------------------------
# Catalog documents: the full v2 unit of persistence
# ----------------------------------------------------------------------
@dataclass
class CatalogDocument:
    """The decoded contents of a v2 file (or a migrated v1 file).

    Plain data only — :class:`repro.catalog.StatisticsCatalog` turns a
    document into a live catalog and back, keeping this module free of a
    stats ↔ catalog import cycle.
    """

    sits: list[SIT] = field(default_factory=list)
    #: parallel to :attr:`sits`: the per-SIT ``meta`` dicts
    sit_meta: list[dict] = field(default_factory=list)
    table_versions: dict[str, int] = field(default_factory=dict)
    catalog_version: int = 0
    #: records skipped by a ``quarantine=True`` load: dicts with a
    #: ``reason`` and (for per-SIT defects) the record ``index``
    quarantined: list[dict] = field(default_factory=list)

    def pool(self) -> SITPool:
        return SITPool(list(self.sits))


def dumps_document(document: CatalogDocument) -> str:
    """Serialize a catalog document to a v2 JSON string."""
    if len(document.sit_meta) not in (0, len(document.sits)):
        raise PoolFormatError(
            "sit_meta must be empty or parallel to sits "
            f"({len(document.sit_meta)} metas for {len(document.sits)} sits)"
        )
    metas = document.sit_meta or [dict(DEFAULT_SIT_META)] * len(document.sits)
    payload = {
        "version": FORMAT_VERSION,
        "catalog": {
            "catalog_version": int(document.catalog_version),
            "table_versions": {
                str(table): int(version)
                for table, version in sorted(document.table_versions.items())
            },
        },
        "sits": [
            encode_sit(sit, meta) for sit, meta in zip(document.sits, metas)
        ],
    }
    return json.dumps(payload)


def _salvage_payload(text: str) -> tuple[dict, list[dict]]:
    """Best-effort recovery of a torn (truncated / trailing-garbage)
    document.

    A v2 file is one JSON object whose ``sits`` array dominates its
    size, so a torn write almost always truncates *inside* a SIT
    record.  The salvager re-parses the header blocks and then walks
    the ``sits`` array record by record with ``raw_decode``; every
    record that decodes completely is kept, the torn tail is reported.
    """
    decoder = json.JSONDecoder()
    notes: list[dict] = []
    version = FORMAT_VERSION
    match = re.search(r'"version"\s*:\s*(\d+)', text)
    if match:
        version = int(match.group(1))
    catalog_block: dict = {}
    catalog_index = text.find('"catalog"')
    if catalog_index != -1:
        brace = text.find("{", catalog_index + len('"catalog"'))
        if brace != -1:
            try:
                candidate, _ = decoder.raw_decode(text, brace)
                if isinstance(candidate, dict):
                    catalog_block = candidate
            except ValueError:
                notes.append({"index": None, "reason": "torn catalog block"})
    entries: list[dict] = []
    sits_index = text.find('"sits"')
    bracket = text.find("[", sits_index) if sits_index != -1 else -1
    if bracket != -1:
        position = bracket + 1
        while position < len(text):
            while position < len(text) and text[position] in " \t\r\n,":
                position += 1
            if position >= len(text) or text[position] != "{":
                break
            try:
                entry, position = decoder.raw_decode(text, position)
            except ValueError:
                notes.append(
                    {
                        "index": len(entries),
                        "reason": "torn SIT record (truncated mid-write)",
                    }
                )
                break
            if isinstance(entry, dict):
                entries.append(entry)
    payload = {"version": version, "catalog": catalog_block, "sits": entries}
    if version == 1:
        payload = migrate_v1_to_v2(payload)
    return payload, notes


def loads_document(text: str, *, quarantine: bool = False) -> CatalogDocument:
    """Deserialize a catalog document (v1 files migrate transparently).

    Strict by default: the first defect raises :class:`PoolFormatError`.
    With ``quarantine=True`` the loader degrades instead of failing —
    a torn file is salvaged record by record, and corrupt SITs (bad
    payloads, checksum mismatches) are skipped and reported in the
    document's :attr:`~CatalogDocument.quarantined` list.
    """
    notes: list[dict] = []
    try:
        payload = _checked_payload(text)
    except PoolFormatError as error:
        if not quarantine:
            raise
        payload, notes = _salvage_payload(text)
        notes.insert(0, {"index": None, "reason": f"document salvaged: {error}"})
    catalog = payload.get("catalog", {})
    if not isinstance(catalog, dict):
        if not quarantine:
            raise PoolFormatError("catalog block must be an object")
        notes.append({"index": None, "reason": "catalog block not an object"})
        catalog = {}
    try:
        table_versions = {
            str(table): int(version)
            for table, version in dict(
                catalog.get("table_versions", {})
            ).items()
        }
        catalog_version = int(catalog.get("catalog_version", 0))
    except (TypeError, ValueError) as error:
        if not quarantine:
            raise PoolFormatError(f"bad catalog block: {error}") from error
        notes.append({"index": None, "reason": f"bad catalog block: {error}"})
        table_versions = {}
        catalog_version = 0
    entries = payload.get("sits", [])
    sits: list[SIT] = []
    sit_meta: list[dict] = []
    for index, entry in enumerate(entries):
        try:
            sit = decode_sit(entry)
            meta = decode_sit_meta(entry)
        except PoolFormatError as error:
            if not quarantine:
                raise
            notes.append({"index": index, "reason": str(error)})
            continue
        sits.append(sit)
        sit_meta.append(meta)
    return CatalogDocument(
        sits=sits,
        sit_meta=sit_meta,
        table_versions=table_versions,
        catalog_version=catalog_version,
        quarantined=notes,
    )


# ----------------------------------------------------------------------
# Crash-safe file writes
# ----------------------------------------------------------------------
def atomic_write_text(path: str | pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    Tempfile in the *same directory* (so the final rename cannot cross
    a filesystem boundary), ``fsync`` of the data, then ``os.replace``
    and a best-effort directory ``fsync``.  A crash at any point leaves
    either the previous file or the complete new one — never a torn
    hybrid (the torn-write regression tests pin this by construction).
    """
    target = pathlib.Path(path)
    directory = target.parent if str(target.parent) else pathlib.Path(".")
    handle, temp_name = tempfile.mkstemp(
        dir=str(directory), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:  # pragma: no cover - already renamed/removed
            pass
        raise
    directory_fd: int | None = None
    try:  # make the rename itself durable (best effort; not all
        # platforms allow opening directories)
        directory_fd = os.open(str(directory), os.O_RDONLY)
        os.fsync(directory_fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        if directory_fd is not None:
            os.close(directory_fd)


def save_document(document: CatalogDocument, path: str | pathlib.Path) -> None:
    """Write a catalog document to ``path`` as v2 JSON (atomically)."""
    plan = _fault_plan()
    if plan is not None:
        # catalog-save injection point: the storage layer tears/fails
        # right as the document is persisted
        plan.check(POINT_CATALOG_SAVE, detail=str(path))
    atomic_write_text(path, dumps_document(document))


def load_document(
    path: str | pathlib.Path, *, quarantine: bool = False
) -> CatalogDocument:
    """Read a catalog document written by :func:`save_document` (or a
    v1 pool file, which migrates).  ``quarantine=True`` salvages torn
    or corrupt files instead of raising (see :func:`loads_document`)."""
    plan = _fault_plan()
    if plan is not None:
        plan.check(POINT_CATALOG_LOAD, detail=str(path))
    return loads_document(pathlib.Path(path).read_text(), quarantine=quarantine)


# ----------------------------------------------------------------------
# Pool-level convenience wrappers (the historical public surface)
# ----------------------------------------------------------------------
def dumps_pool(pool: SITPool) -> str:
    """Serialize a bare pool to a v2 JSON string (default metadata)."""
    return dumps_document(CatalogDocument(sits=list(pool)))


def loads_pool(text: str) -> SITPool:
    """Deserialize a pool from a JSON string (v1 or v2)."""
    return loads_document(text).pool()


def save_pool(pool: SITPool, path: str | pathlib.Path) -> None:
    """Write a pool to ``path`` as JSON (atomically; see
    :func:`atomic_write_text`)."""
    save_document(CatalogDocument(sits=list(pool)), path)


def load_pool(
    path: str | pathlib.Path, *, quarantine: bool = False
) -> SITPool:
    """Read a pool previously written by :func:`save_pool`."""
    return load_document(path, quarantine=quarantine).pool()
