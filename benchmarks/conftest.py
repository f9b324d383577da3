"""Pytest configuration for the benchmark suite.

Each benchmark regenerates one of the paper's tables or figures through the
experiment harnesses in :mod:`repro.experiments`, asserts the paper's
qualitative claims on the result, and (when run with ``--benchmark-only``)
reports how long the regeneration takes.

Benchmarks that archive a ``BENCH_*.json`` artifact stamp it with the
machine provenance from :func:`machine_provenance` (also available as the
``bench_provenance`` fixture): a throughput number is only comparable to
another run when you know the core count, the numpy version and the
platform it was measured on.
"""

import os
import platform
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def machine_provenance() -> dict[str, object]:
    """Environment facts every archived benchmark report must carry."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "numpy_version": numpy.__version__,
        "platform": platform.platform(),
    }


@pytest.fixture
def bench_provenance() -> dict[str, object]:
    return machine_provenance()
