"""Run with ``python -m pytest bench/tests`` from the repository root
(outside tier-1's ``testpaths``)."""

import sys

from bench import ROOT, require_repro

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
require_repro()
