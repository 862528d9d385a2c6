"""SQL front-end: parse conjunctive SELECT-FROM-WHERE statements into the
canonical SPJ predicate form the estimators operate on.

:func:`parse_query` is the whole parse — lexer, recursive descent, name
resolution — and what a one-shot caller (the CLI, a test) uses.  Whoever
serves a stream of statements owns a :class:`TemplateFrontEnd`, which
parses a *shape* once and binds every later statement of it from its
literals alone; ``parse_query`` is its miss path and its oracle.
"""

from repro.sql.binder import (
    BindingError,
    BoundQuery,
    BoundTemplate,
    bind,
    parse_query,
)
from repro.sql.lexer import SQLSyntaxError, Token, TokenType, tokenize
from repro.sql.parser import (
    BetweenPredicate,
    ColumnRef,
    Comparison,
    JoinComparison,
    SelectStatement,
    TableRef,
    parse_select,
)
from repro.sql.template import TemplateFrontEnd

__all__ = [
    "BetweenPredicate",
    "BindingError",
    "BoundQuery",
    "BoundTemplate",
    "ColumnRef",
    "Comparison",
    "JoinComparison",
    "SQLSyntaxError",
    "SelectStatement",
    "TableRef",
    "TemplateFrontEnd",
    "Token",
    "TokenType",
    "bind",
    "parse_query",
    "parse_select",
    "tokenize",
]
