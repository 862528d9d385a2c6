"""Parse a SQL shape once: statements bound from cached templates.

An optimizer's requests differ in their constants far more often than in
their shape, and everything the lexer, the parser and name resolution
decide depends on the shape alone.  :class:`TemplateFrontEnd` therefore
splits a statement, in one pass of a regex made of the lexer's own token
alternatives, into its **skeleton** — every run of non-number tokens,
whitespace included, verbatim — and its **number literals** in source
order.  The skeleton keys a bounded table of
:class:`~repro.sql.binder.BoundTemplate` s; a hit runs only the
value-dependent half of :func:`~repro.sql.binder.bind` over ``float`` of
the literals; a served hit scans for the numbers set off by spaces and
builds no predicate (:meth:`~TemplateFrontEnd.ranges`).
:func:`~repro.sql.binder.parse_query` is the miss path and the oracle
(``tests/sql/test_template_parity.py``): whatever the split or the scan
does not recognise goes to it and gets its answer or its error.

Whoever serves owns one front end (``EstimationService``); it is safe
to share between submitting threads.
"""

from __future__ import annotations

import re
import threading

from repro.engine.expressions import Query
from repro.engine.schema import Schema
from repro.sql.binder import BindingError, BoundTemplate, bind
from repro.sql.lexer import IDENTIFIER_RE, NUMBER_RE, OPERATOR_RE, PUNCTUATION_RE
from repro.sql.parser import parse_select

#: templates one front end keeps, and the skeleton text they may add up
#: to — a peer chooses the text and a line runs to 64 KiB, so entries
#: alone would not bound memory.  Constants, as ``UNIVERSE_LIMIT`` is:
#: past either bound the table starts over (a working set is tens of
#: shapes; re-parsing each once is cheaper than tracking recency on
#: every hit).
TEMPLATE_LIMIT = 512
SKELETON_BYTES_LIMIT = 1 << 20

#: a statement as alternating chunks: a number, or a run of anything else
#: the lexer has a token for (and the whitespace between).  No chunk is
#: followed by something it must match, so a chunk that stops matching
#: just ends — linear in the statement, whatever it holds.  A character
#: the lexer has no token for belongs to no chunk: the chunks then fall
#: short of the statement, which is how the caller knows.
_split = re.compile(
    rf"{NUMBER_RE}|(?:\s+|{IDENTIFIER_RE}|{OPERATOR_RE}|{PUNCTUATION_RE})+"
).findall

#: a hit's cheaper split: at each number after a space and before a space,
#: ``)`` or the end (the space goes with it), skeleton pieces and literals
_scan = re.compile(rf" ({NUMBER_RE})(?=[ )]|\Z)", re.ASCII).split


def _skeleton_and_literals(sql: str) -> tuple[tuple[str, ...] | None, list[float]]:
    """``(skeleton, literals)``, or ``(None, [])`` for a statement only
    the full parse may judge: non-ASCII (the lexer folds those before it
    scans), a character outside every chunk, a literal ``float`` rejects.

    Chunks alternate skeleton run, number, … from a skeleton run on in
    every statement that parses (it starts with SELECT, and the grammar
    never puts two numbers side by side), so the even chunks are the key.
    A statement that breaks the alternation has a number among its even
    chunks, which no stored key has."""
    if not sql.isascii():
        return None, []
    chunks = _split(sql)
    if sum(map(len, chunks)) != len(sql):
        return None, []
    try:
        return tuple(chunks[::2]), list(map(float, chunks[1::2]))
    except ValueError:
        return None, []


class TemplateFrontEnd:
    """``parse_query`` for one schema, remembering shapes.

    ``hits`` and ``misses`` count every statement once: bound from a
    template, or handed to the full parse (cold, unrecognised or
    malformed alike)."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.hits = 0
        self.misses = 0
        self._templates: dict[tuple[str, ...], BoundTemplate] = {}
        #: the same templates by scanned skeleton, no more nor longer keys
        self._scanned: dict[tuple[str, ...], BoundTemplate] = {}
        self._skeleton_bytes = 0
        #: guards the tables, the byte count and the two counters
        self._lock = threading.Lock()

    def parse(self, sql: str) -> Query:
        """The :class:`Query` ``parse_query(sql, self.schema)`` returns,
        or the exception it raises."""
        predicates, tables = self.parse_predicates(sql)
        return Query(predicates, tables=tables)

    def parse_predicates(self, sql: str) -> tuple[frozenset, frozenset[str]]:
        """:meth:`parse`'s ``(query.predicates, query.tables)`` without
        the :class:`Query`: a hit's tables are its template's FROM
        tables, which cover every predicate, so the serving path
        (``coerce_query``) builds no ``Query`` and walks no tables."""
        skeleton, literals = _skeleton_and_literals(sql)
        with self._lock:
            template = self._templates.get(skeleton)
            if template is not None and template.literals == len(literals):
                self.hits += 1
            else:
                template = None
                self.misses += 1
        if template is not None:
            predicates = template.assemble(literals).predicates(template.joins)
            return predicates, template.tables
        bound = bind(parse_select(sql), self.schema)
        if skeleton is not None and bound.template.literals == len(literals):
            self._store(skeleton, bound.template, sql, literals)
        return bound.query.predicates, bound.query.tables

    def ranges(self, sql: str) -> tuple | None:
        """A hit's ``(template, assembly)`` by scanned skeleton, counted, or
        ``None``, counting nothing, for :meth:`parse_predicates` to judge: an
        unknown skeleton or bad literal, an empty range, no predicate."""
        pieces = _scan(sql)
        with self._lock:
            template = self._scanned.get(tuple(pieces[::2]))
        if template is None:
            return None
        try:
            assembly = template.assemble(list(map(float, pieces[1::2])))
        except (ValueError, BindingError):
            return None
        if assembly.unsatisfiable or not (assembly.ranges or template.joins):
            return None
        with self._lock:
            self.hits += 1
        return template, assembly

    def _store(self, skeleton, template: BoundTemplate, sql: str, literals) -> None:
        size = sum(map(len, skeleton))
        if size > SKELETON_BYTES_LIMIT:
            return
        with self._lock:
            if skeleton in self._templates:  # another submitter got here first
                return
            if (
                len(self._templates) >= TEMPLATE_LIMIT
                or self._skeleton_bytes + size > SKELETON_BYTES_LIMIT
            ):
                self._templates.clear()
                self._scanned.clear()
                self._skeleton_bytes = 0
            self._templates[skeleton] = template
            self._skeleton_bytes += size
            pieces = _scan(sql)
            # every number the scan finds the split finds, text for text:
            # as many, and equal, are the split's literals
            if list(map(float, pieces[1::2])) == literals:
                self._scanned[tuple(pieces[::2])] = template

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def skeleton_bytes(self) -> int:
        return self._skeleton_bytes
