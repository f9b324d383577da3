"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.design import DesignSpec, design_conventional, design_proposed
from repro.technology.corners import OperatingConditions
from repro.technology.library import intel32_like_library
from repro.technology.synthesis import Synthesizer

#: Tier-1 draws the same examples on every run: each property test's
#: search is seeded from the test itself, so a failure always reproduces.
settings.register_profile("deterministic", derandomize=True)
#: The open-ended search: fresh examples each run.  CI runs it in a step of
#: its own with ``--hypothesis-profile=randomized``.
settings.register_profile("randomized", derandomize=False)


def pytest_configure(config):
    """Load the deterministic profile unless the command line names one."""
    if not config.getoption("hypothesis_profile", default=None):
        settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def library():
    """The calibrated 32 nm-class library (shared, treated as read-only)."""
    return intel32_like_library()


@pytest.fixture(scope="session")
def synthesizer(library):
    return Synthesizer(library=library)


@pytest.fixture(scope="session")
def spec_100mhz_6bit():
    """The paper's headline specification: 100 MHz, 6-bit resolution."""
    return DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)


@pytest.fixture(scope="session")
def proposed_design(spec_100mhz_6bit, library):
    return design_proposed(spec_100mhz_6bit, library)


@pytest.fixture(scope="session")
def conventional_design(spec_100mhz_6bit, library):
    return design_conventional(spec_100mhz_6bit, library)


@pytest.fixture()
def proposed_line(proposed_design, library):
    return proposed_design.build_line(library=library)


@pytest.fixture()
def conventional_line(conventional_design, library):
    return conventional_design.build_line(library=library)


@pytest.fixture(scope="session")
def all_corners():
    return OperatingConditions.all_corners()
