"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import settings

from repro.graph.builder import build_graph
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants


# Hypothesis profiles.  Tier-1 runs ``tier1``; a CI step reruns the
# rung oracles (``tests/test_windows.py::TestExactWindows``, the
# straightness query, the cycle-model parity, the kernel's
# ``TestRung`` / ``TestStopAndJump``) under
# ``--hypothesis-profile=deep``.  Those tests set no ``max_examples``
# of their own, so they take the count from the profile, as does
# every other property test that pins none (150 under ``tier1``
# instead of Hypothesis's default 100).
settings.register_profile("tier1", max_examples=150)
settings.register_profile("deep", max_examples=2_000)


def pytest_configure(config: pytest.Config) -> None:
    if config.getoption("hypothesis_profile", None) is None:
        settings.load_profile("tier1")


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_reference(rng) -> str:
    """A 5 kbp random reference."""
    return random_reference(5_000, rng)


@pytest.fixture
def small_built(small_reference, rng):
    """A variation graph over the 5 kbp reference with a dense variant
    set (rates scaled up so small graphs still contain bubbles)."""
    profile = VariantProfile(
        snp_rate=0.01, insertion_rate=0.002, deletion_rate=0.002,
        sv_rate=0.0002, sv_min=20, sv_max=60,
    )
    variants = simulate_variants(small_reference, rng, profile)
    return build_graph(small_reference, variants, name="small")


@pytest.fixture
def small_graph(small_built):
    return small_built.graph


@pytest.fixture
def unbounded(monkeypatch):
    """Lift the align stage's edit budget: with an infinite MAPQ
    saturation gap every region is aligned to its end — the oracle
    bounded extension is measured against."""
    monkeypatch.setattr("repro.core.mapper.MAPQ_SATURATION_GAP",
                        math.inf)
