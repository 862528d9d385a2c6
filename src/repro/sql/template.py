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
the literals.

A served hit scans for the numbers set off by spaces
(:meth:`~TemplateFrontEnd.scan`) and builds no predicate.  Its scanned
skeleton keeps a **route**: what the skeleton's first full bind derived
— per literal the row it fills and how, the plan-cache fingerprint, the
join rows — so a hit fills its filter rows' bounds and checks that the
constants left the rows in the route's order (DESIGN.md §5), formatting
no filter text and sorting nothing.  A statement the check refuses is
ordered as ever, by :func:`~repro.core.predicates.bounds_fingerprint`.
:func:`~repro.sql.binder.parse_query` is the miss path and the oracle
(``tests/sql/test_template_parity.py``): whatever the split or the scan
does not recognise goes to it and gets its answer or its error.

Whoever serves owns one front end (``EstimationService``); it is safe
to share between submitting threads.
"""

from __future__ import annotations

import math
import re
import threading

from repro.core.predicates import Attribute, BoundsRow, FilterPredicate, bounds_fingerprint
from repro.engine.expressions import Query
from repro.engine.schema import Schema
from repro.sql.binder import BETWEEN, BindingError, BoundTemplate, _range_of, bind
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


_row = tuple.__new__
_INF = math.inf


class _Route:
    """A scanned skeleton's rows in the order its first full bind sorted
    them, and how its literals fill them.

    ``program`` has one step per filter slot of the template, in source
    order: the row it fills, its operator, its first literal, and whether
    an earlier slot filled that row already (a same-attribute merge, done
    as :class:`~repro.sql.binder._Assembly` does it).  ``rows`` holds the
    join rows in place and ``None`` where a filter row goes.  The range
    rows (``low < high``) come first, as they sort (their texts start with
    a number); ``ranges`` lists them with the key that orders them when
    there are two or more, ``equalities`` the point rows after them."""

    __slots__ = ("fingerprint", "rows", "program", "ranges", "equalities")

    def __init__(self, template: BoundTemplate, fingerprint: tuple, rows: list) -> None:
        self.fingerprint = fingerprint
        self.rows = [row if row.low is None else None for row in rows]
        position_of = {row.token: index for index, row in enumerate(rows)}
        program = []
        filled = set()
        at = 0
        for attribute, operator in template.slots:
            position = position_of["F", attribute]
            program.append((position, operator, at, position in filled))
            filled.add(position)
            at += 2 if operator == BETWEEN else 1
        self.program = tuple(program)
        ranges = [
            (index, row.token, "<=%s<" % (row.token[1],))
            for index, row in enumerate(rows)
            if row.low is not None and row.low < row.high
        ]
        if len(ranges) < 2:  # one range row has nothing to order against
            ranges = [(index, token, None) for index, token, _ in ranges]
        self.ranges = tuple(ranges)
        self.equalities = tuple(
            (index, row.token)
            for index, row in enumerate(rows)
            if row.low is not None and row.low == row.high
        )

    def fill(self, literals: list[float]) -> list | None:
        """``bounds_fingerprint``'s rows for ``literals``, in the route's
        order, or ``None`` where that order might not be theirs: a range
        row that is a point or empty here, a point row that is a range, an
        infinite point (``name=inf`` sorts after a join on that name), or
        range keys out of order."""
        lows = [0.0] * len(self.rows)
        highs = lows[:]
        for position, operator, at, merge in self.program:
            if operator == BETWEEN:
                low = literals[at]
                high = literals[at + 1]
            else:
                low, high = _range_of(operator, literals[at])
            if merge:
                low = max(lows[position], low)
                high = min(highs[position], high)
            lows[position] = low
            highs[position] = high
        rows = self.rows[:]
        previous = ""
        for position, token, suffix in self.ranges:
            low = lows[position]
            high = highs[position]
            if not low < high:
                return None
            if suffix is not None:
                key = "%g%s" % (low, suffix)
                if key <= previous:
                    return None
                previous = key
            rows[position] = _row(BoundsRow, (None, token, low, high))
        for position, token in self.equalities:
            low = lows[position]
            high = highs[position]
            if low != high or low == _INF:
                return None
            rows[position] = _row(BoundsRow, (None, token, low, high))
        return rows


def _route(template: BoundTemplate, literals: list[float]) -> _Route | None:
    """The route of a skeleton whose first statement bound ``template``
    with ``literals``, or ``None`` where there is no row set to order (an
    empty or unsatisfiable range, no predicate) or the route does not
    give its own statement ``bounds_fingerprint``'s rows.  The order
    argument takes every table and column name for an identifier: a name
    reaches a template only as an identifier token the schema knows."""
    try:
        assembly = template.assemble(literals)
    except BindingError:
        return None
    if assembly.unsatisfiable or not (assembly.ranges or template.joins):
        return None
    fingerprint, rows = bounds_fingerprint(assembly.ranges, template.joins)
    route = _Route(template, fingerprint, rows)
    filled = route.fill(literals)
    if filled is None or [row[1:] for row in filled] != [row[1:] for row in rows]:
        return None
    return route


def scanned_predicates(template: BoundTemplate, rows: list) -> frozenset:
    """The predicate set of a :meth:`TemplateFrontEnd.scan` hit's rows:
    ``parse_predicates``' set for the same statement."""
    predicates = set(template.joins)
    predicates.update(
        FilterPredicate(row.token[1], row.low, row.high) for row in rows if row.low is not None
    )
    return frozenset(predicates)


class TemplateFrontEnd:
    """``parse_query`` for one schema, remembering shapes.

    ``hits`` and ``misses`` count every statement :meth:`parse_predicates`
    sees once: bound from a template, or handed to the full parse (cold,
    unrecognised or malformed alike); a :meth:`scan` hit counts in
    neither.  ``fallbacks`` counts the scanned hits that no route took,
    ordered by ``bounds_fingerprint`` instead."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self._templates: dict[tuple[str, ...], BoundTemplate] = {}
        #: ``(template, route or None)`` by scanned skeleton, for no more
        #: templates nor longer keys; read without the lock
        self._scanned: dict[tuple[str, ...], tuple[BoundTemplate, _Route | None]] = {}
        self._skeleton_bytes = 0
        #: one ``Attribute`` object per column for every bind: routes and
        #: compiled plans then hold identical shape tokens, so a probe's
        #: key compares by identity (bounded by the schema's columns)
        self._attributes: dict[Attribute, Attribute] = {}
        #: guards every write to the tables, the byte count and the counters
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
        bound = bind(parse_select(sql), self.schema, self._attributes)
        if skeleton is not None and bound.template.literals == len(literals):
            self._store(skeleton, bound.template, sql, literals)
        return bound.query.predicates, bound.query.tables

    def scan(self, sql: str) -> tuple | None:
        """A served hit by scanned skeleton: ``(template, fingerprint,
        rows)``, the rows in the plan's position order, each filter's
        ``low`` and ``high`` set — or ``None`` for :meth:`parse_predicates`
        to judge: an unknown skeleton or bad literal, an empty range, no
        predicate.  Counts no hit; a hit that no route takes counts one
        fallback."""
        pieces = _scan(sql)
        entry = self._scanned.get(tuple(pieces[::2]))
        if entry is None:
            return None
        template, route = entry
        try:
            literals = list(map(float, pieces[1::2]))
        except ValueError:
            return None
        if route is not None:
            rows = route.fill(literals)
            if rows is not None:
                return template, route.fingerprint, rows
        try:
            assembly = template.assemble(literals)
        except BindingError:
            return None
        if assembly.unsatisfiable or not (assembly.ranges or template.joins):
            return None
        with self._lock:
            self.fallbacks += 1
        return (template, *bounds_fingerprint(assembly.ranges, template.joins))

    def _store(self, skeleton, template: BoundTemplate, sql: str, literals) -> None:
        size = sum(map(len, skeleton))
        if size > SKELETON_BYTES_LIMIT:
            return
        pieces = _scan(sql)
        # every number the scan finds the split finds, text for text: as
        # many, and equal, are the split's literals
        scanned = list(map(float, pieces[1::2])) == literals
        route = _route(template, literals) if scanned else None
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
            if scanned:
                self._scanned[tuple(pieces[::2])] = template, route

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def skeleton_bytes(self) -> int:
        return self._skeleton_bytes
