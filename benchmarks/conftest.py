"""Pytest configuration for the benchmark suite.

Each benchmark regenerates one of the paper's tables or figures through the
experiment harnesses in :mod:`repro.experiments`, asserts the paper's
qualitative claims on the result, and (when run with ``--benchmark-only``)
reports how long the regeneration takes.  The committed, re-runnable
performance measurement is ``perfbench/`` (see ``BENCHMARK.json``).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
