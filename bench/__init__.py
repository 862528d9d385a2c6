"""The repository's benchmark: four seeded workloads, one harness.

``python -m bench run|trace|repeat|measure`` — see ``bench/README.md``.
The package drives ``repro`` only through its public entry points and
records every span and counter from its own files.
"""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything the benchmark writes (saved catalog, traces) lands here
OUT_DIR = BENCH_DIR / "out"


def require_repro() -> None:
    """Put the checkout's ``src`` on ``sys.path``; exit non-zero when the
    program under test is not there (a directory holding only the
    benchmark cannot be measured)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
