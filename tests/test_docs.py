"""The documents cite the tree as it is.

DESIGN.md, README.md and the verify skill name files, modules, classes,
attributes and metrics.  Each test below resolves one kind of citation
against the tree, so a rename or a deletion that leaves a document
behind fails with the document, the line and the name:

* a backticked repo path, written from the repo root or from ``src/``,
  must exist.  A ``path:N`` line suffix is refused, because line numbers
  go stale on every edit; a ``path::Name`` suffix must name a class or
  function of that file;
* a dotted ``repro.…`` name must import, then resolve attribute by
  attribute;
* a backticked ``Class.attr`` must name a class defined in ``src/repro``
  and a member of it.  The lookup follows the MRO and counts methods,
  properties, dataclass fields, ``__slots__`` and attributes a method
  assigns on ``self``; a chain goes on through an attribute's annotated
  or constructed type;
* any other lowercase dotted name is a metric or a gate-file key: it
  must occur as a string literal in ``src/`` or ``bench/``, or as a key
  path of ``BENCH_core.json``;
* a section reference (the section sign and a number) in the documents,
  EXPERIMENTS.md, ``src/`` or ``tests/`` must name a numbered DESIGN.md
  heading;
* every ``python`` code block of README.md runs, each in a fresh
  namespace.

The docstrings and comments of ``src/repro`` get the same check for
their double-backticked ``Class.attr`` names and for the ``:class:``,
``:meth:``, ``:attr:``, ``:func:`` and ``:mod:`` roles.
"""

from __future__ import annotations

import ast
import builtins
import functools
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DOCS = ("DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md")

_FENCE = re.compile(r"^```(\w*)[^\n]*\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_EXTENSIONS = r"py|json|md|txt|toml|yml|yaml|cfg|ini|sh"
_PATH = re.compile(
    r"(?P<path>[A-Za-z_.][\w.*-]*(?:/[\w.*-]*)+"
    rf"|[A-Za-z_][\w.*-]*\.(?:{_EXTENSIONS}))"
    r"(?P<node>::[\w:\[\]-]+)?(?P<line>:\d[\d-]*)?"
)
_REPRO = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
_CLASS_ATTR = re.compile(r"[A-Z]\w*(?:\.[A-Za-z_]\w*)+")
_LOWER_DOTTED = re.compile(r"[a-z_]\w*(?:\.[A-Za-z_]\w*)+")
_SECTION = re.compile("\u00a7 ?(\\d+)")
_HEADING = re.compile(r"^## (\d+)\. ", re.M)
_DOCSTRING_NAME = re.compile(r"``([A-Z]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?``")
_QUOTED = re.compile(r"""["']([a-z_]\w*(?:\.\w+)+)["']""")
_ROLE = re.compile(r":(class|meth|attr|func|mod):`~?([\w.]+?)(?:\(\))?`")


# ----------------------------------------------------------------------
# The tree: modules, classes and their members
# ----------------------------------------------------------------------
@functools.cache
def _modules() -> dict[str, object]:
    modules = {"repro": repro}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            modules[info.name] = importlib.import_module(info.name)
    return modules


@functools.cache
def _classes() -> dict[str, tuple[type, ...]]:
    """Every class defined in ``src/repro``, by name."""
    index: dict[str, set[type]] = {}
    for module in _modules().values():
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("repro"):
                index.setdefault(value.__name__, set()).add(value)
    return {name: tuple(found) for name, found in index.items()}


@functools.cache
def _assigned(module_name: str) -> dict[str, dict[str, str | None]]:
    """Per class of a module, the attributes its methods assign on
    ``self`` — by assignment, ``object.__setattr__(self, "name", …)`` or
    ``self.__dict__.update(name=…)`` — each with the name of the class
    it is built from (or ``None`` when the source does not say)."""
    tree = ast.parse(inspect.getsource(_modules()[module_name]))
    found: dict[str, dict[str, str | None]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names = found.setdefault(node.name, {})
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                for name in _set_on_self(child):
                    names.setdefault(name, None)
                continue
            if isinstance(child, ast.Assign):
                targets, value, annotation = child.targets, child.value, None
            elif isinstance(child, ast.AnnAssign):
                targets, value = [child.target], child.value
                annotation = child.annotation
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        built = _type_name(annotation, value)
                        if names.get(leaf.attr) is None:
                            names[leaf.attr] = built
    return found


def _set_on_self(call: ast.Call) -> list[str]:
    func, args = ast.unparse(call.func), call.args
    if (
        func == "object.__setattr__"
        and len(args) >= 2
        and isinstance(args[0], ast.Name)
        and args[0].id == "self"
        and isinstance(args[1], ast.Constant)
    ):
        return [args[1].value]
    if func == "self.__dict__.update":
        return [keyword.arg for keyword in call.keywords if keyword.arg]
    return []


def _type_name(annotation, value) -> str | None:
    if annotation is not None:
        return ast.unparse(annotation)
    if isinstance(value, ast.Call):
        return ast.unparse(value.func)
    return None


def _types_named(annotation) -> list[type]:
    """The repro classes an annotation or constructor names."""
    if annotation is None:
        return []
    if not isinstance(annotation, str):
        annotation = getattr(annotation, "__name__", None) or repr(annotation)
    for word in re.findall(r"[A-Za-z_]\w*", annotation):
        if word in _classes():
            return list(_classes()[word])
    return []


_UNKNOWN = object()


def _member(cls: type, name: str) -> list:
    """What ``cls.name`` holds, as candidates for the next step of a
    chain; ``[]`` when ``cls`` has no such member, ``[_UNKNOWN]`` when
    it does but its type cannot be followed."""
    for klass in cls.__mro__:
        annotations = vars(klass).get("__annotations__", {})
        if name in annotations:
            return _types_named(annotations[name]) or [_UNKNOWN]
        if name in vars(klass):
            value = vars(klass)[name]
            if isinstance(value, property):
                hint = value.fget.__annotations__.get("return")
                return _types_named(hint) or [_UNKNOWN]
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            return [value]
        if name in (getattr(klass, "__slots__", None) or ()):
            return [_UNKNOWN]
        if klass.__module__ in _modules():
            built = _assigned(klass.__module__).get(klass.__name__, {})
            if name in built:
                return _types_named(built[name]) or [_UNKNOWN]
    return []


def _children(obj, part: str) -> list:
    if obj is _UNKNOWN:
        return []
    if inspect.ismodule(obj):
        if hasattr(obj, part):
            return [getattr(obj, part)]
        try:
            return [importlib.import_module(f"{obj.__name__}.{part}")]
        except ImportError:
            return []
    if isinstance(obj, type):
        return _member(obj, part)
    return [getattr(obj, part)] if hasattr(obj, part) else []


def _walk(objects: list, parts: list[str], done: str) -> str | None:
    """``None`` when ``done`` (resolved to ``objects``) continues through
    ``parts``, else what is missing."""
    for part in parts:
        following = [child for obj in objects for child in _children(obj, part)]
        if not following:
            return f"`{done}` has no `{part}`"
        objects = following
        done = f"{done}.{part}"
    return None


def _resolve_repro(name: str) -> str | None:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _walk([module], parts[cut:], ".".join(parts[:cut]))
    return "does not import"


def _resolve_class_attr(name: str) -> str | None:
    head, *rest = name.split(".")
    classes = _classes().get(head)
    if not classes:
        return f"no class `{head}` in src/repro"
    return _walk(list(classes), rest, head)


@functools.cache
def _literals() -> frozenset[str]:
    """String literals of ``src/`` and ``bench/``, and the key paths of
    ``BENCH_core.json``: what a metric or gate-key citation must be."""
    found: set[str] = set()
    for top in (SRC, ROOT / "bench"):
        for path in top.rglob("*.py"):
            found.update(_QUOTED.findall(path.read_text(encoding="utf-8")))

    def keys(value, prefix):
        if isinstance(value, dict):
            for key, inner in value.items():
                found.add(prefix + key)
                keys(inner, prefix + key + ".")

    keys(json.loads((ROOT / "BENCH_core.json").read_text()), "")
    return frozenset(found)


def _resolve_path(match: re.Match) -> str | None:
    if match["line"]:
        return "a line number goes stale: cite the file or a name in it"
    path = match["path"].rstrip("/")
    bases = [ROOT / path, SRC / path]
    hits = [hit for base in bases for hit in base.parent.glob(base.name)]
    if not hits:
        return "no such path from the repo root or src/"
    for name in (match["node"] or "").split("::")[1:]:
        pattern = rf"^\s*(class|def) {re.escape(name.split('[')[0])}\b"
        files = [hit.read_text() for hit in hits if hit.is_file()]
        if not any(re.search(pattern, text, re.M) for text in files):
            return f"no class or function `{name}` in {path}"
    return None


# ----------------------------------------------------------------------
# The documents
# ----------------------------------------------------------------------
def _text(doc: str) -> str:
    return (ROOT / doc).read_text(encoding="utf-8")


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _prose(text: str) -> str:
    """``text`` with its fenced blocks blanked, line numbers kept."""
    return _FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m[0]), text)


def _spans(text: str):
    """``(line, span)`` for every inline code span outside a fence."""
    prose = _prose(text)
    for match in _SPAN.finditer(prose):
        yield _line(prose, match.start()), match[1]


def _check_span(span: str) -> str | None:
    if "\n" in span:
        return "a code span breaks across lines: keep it on one line"
    name = span.removesuffix("()")
    path = _PATH.fullmatch(name)
    if path:
        return _resolve_path(path)
    if name.startswith("repro.") and _REPRO.fullmatch(name):
        return None  # resolved by the repro-name scan
    if _CLASS_ATTR.fullmatch(name):
        return _resolve_class_attr(name)
    if _LOWER_DOTTED.fullmatch(name) and name not in _literals():
        return (
            "not a string literal of src/ or bench/ nor a BENCH_core.json key "
            "(write a module as `repro.…`, an attribute as `Class.attr`)"
        )
    return None


@pytest.mark.parametrize("doc", DOCS)
def test_code_spans_resolve(doc):
    problems = [
        f"{doc}:{line}: `{span}`: {why}"
        for line, span in _spans(_text(doc))
        if (why := _check_span(span))
    ]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("doc", DOCS)
def test_repro_names_resolve(doc):
    """Every ``repro.…`` name, in prose, spans and code blocks alike."""
    text = _text(doc)
    problems = [
        f"{doc}:{_line(text, match.start())}: `{match[0]}`: {why}"
        for match in _REPRO.finditer(text)
        if (why := _resolve_repro(match[0]))
    ]
    assert not problems, "\n".join(problems)


def _section_sources():
    for doc in (*DOCS, "EXPERIMENTS.md"):
        yield doc, _text(doc)
    for top in (SRC, ROOT / "tests"):
        for path in sorted(top.rglob("*.py")):
            yield str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")


def test_section_references_name_design_headings():
    sections = set(_HEADING.findall(_text("DESIGN.md")))
    assert sections, "DESIGN.md has no numbered `## N. Title` heading"
    problems = [
        f"{where}:{_line(text, match.start())}: `{match[0]}`: "
        f"DESIGN.md has no heading `## {match[1]}.`"
        for where, text in _section_sources()
        for match in _SECTION.finditer(text)
        if match[1] not in sections
    ]
    assert not problems, "\n".join(problems)


def _readme_blocks():
    text = _text("README.md")
    return [
        pytest.param(block[2], id=f"README.md:{_line(text, block.start())}")
        for block in _FENCE.finditer(text)
        if block[1] == "python"
    ]


@pytest.mark.parametrize("code", _readme_blocks())
def test_readme_python_blocks_run(code):
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})


# ----------------------------------------------------------------------
# The docstrings and comments of src/repro
# ----------------------------------------------------------------------
def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _resolve_role(kind: str, target: str, module) -> str | None:
    if target.startswith("repro."):
        return _resolve_repro(target)
    if kind == "mod":
        return "write a module fully qualified, as `repro.…`"
    head, *rest = target.split(".")
    roots = list(_classes().get(head, ()))
    for scope in (module, builtins):
        if hasattr(scope, head):
            roots.append(getattr(scope, head))
    if not rest:
        if roots:
            return None
        local = [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        if any(_member(cls, head) for cls in local):
            return None
        return f"`{head}` is no global of {module.__name__} nor a member of its classes"
    if not roots:
        return f"no `{head}` in {module.__name__} or among the repro classes"
    return _walk(roots, rest, head)


def test_src_docstring_names_resolve():
    problems = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = _module_name(path)
        if name.endswith("__main__"):
            continue
        module = _modules()[name]
        text = path.read_text(encoding="utf-8")
        where = path.relative_to(ROOT)
        for match in _DOCSTRING_NAME.finditer(text):
            if match[1].split(".")[0] in _classes():
                why = _resolve_class_attr(match[1])
                if why:
                    line = _line(text, match.start())
                    problems.append(f"{where}:{line}: ``{match[1]}``: {why}")
        for match in _ROLE.finditer(text):
            why = _resolve_role(match[1], match[2], module)
            if why:
                line = _line(text, match.start())
                problems.append(f"{where}:{line}: {match[0]}: {why}")
    assert not problems, "\n".join(problems)
