"""Shared fixtures and the acceptance-criterion summary hook."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from driftchain import (
    FiniteMeasure,
    UrnSpec,
    make_balanced_urn,
    make_circle_model,
    make_descents_model,
    make_idla_model,
    make_removal_urn,
)


@pytest.fixture(scope="session")
def descents_model():
    return make_descents_model()


@pytest.fixture(scope="session")
def circle_model():
    return make_circle_model()


@pytest.fixture(scope="session")
def idla_model():
    return make_idla_model()


@pytest.fixture(scope="session")
def removal_uniform_model():
    return make_removal_urn(2, FiniteMeasure.uniform([0, 1, 2]))


@pytest.fixture(scope="session")
def wide_urn_model():
    """An urn whose two increment measures are genuinely two-atom."""
    spec = UrnSpec(
        N=2,
        mu1=FiniteMeasure.from_pairs([(-1, Fraction(1, 2)), (2, Fraction(1, 2))]),
        mu2=FiniteMeasure.from_pairs([(0, Fraction(1, 2)), (2, Fraction(1, 2))]),
        a0=1, b0=1)
    return make_balanced_urn(spec)


def random_urn_spec(rng: np.random.Generator, max_n: int = 6,
                    max_weight: int = 9) -> UrnSpec:
    """A random admissible UrnSpec with exact rational masses.

    Masses are integer weights normalised by their total, so they sum to 1
    exactly; supports are random non-empty subsets of the allowed windows.
    """
    n_balls = int(rng.integers(1, max_n + 1))

    def random_measure(lo: int, hi: int) -> FiniteMeasure:
        window = list(range(lo, hi + 1))
        count = int(rng.integers(1, len(window) + 1))
        support = sorted(rng.choice(window, size=count, replace=False).tolist())
        weights = [int(rng.integers(1, max_weight + 1)) for _ in support]
        total = sum(weights)
        return FiniteMeasure.from_pairs(
            [(v, Fraction(w, total)) for v, w in zip(support, weights)])

    a0 = int(rng.integers(0, 4))
    b0 = int(rng.integers(0, 4))
    if a0 + b0 < 1:
        a0 = 1
    return UrnSpec(N=n_balls,
                   mu1=random_measure(-1, n_balls),
                   mu2=random_measure(0, n_balls + 1),
                   a0=a0, b0=b0)


@pytest.fixture
def urn_spec_stream():
    def stream(seed: int, count: int):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield random_urn_spec(rng)
    return stream


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

CRITERIA = {
    "c1": "exact descents law equals permutation enumeration (n <= 8)",
    "c2": "descents variance (n+1)/12 for n <= 300",
    "c3": "descents / growth-urn / aggregation laws coincide (n <= 50)",
    "c4": "closed-form limit constants, exact rational agreement",
    "c5": ("urn variance decomposition + degeneracy over 1000 random specs, "
           "exactly"),
    "c6": "moment recursions match the exact DP (n <= 300)",
    "c7": ("Monte Carlo standardized moments at n=4000, 40000 replicates "
           "(odd orders against the exact law at n=4000)"),
    "c8": "scalar recursion asymptotics and Gamma telescoping",
    "c9": "conditional-moment drift form validated state by state, exactly",
}


def _criterion_of(nodeid: str) -> str | None:
    name = nodeid.rsplit("::", 1)[-1]
    if not nodeid.split("::")[0].endswith("test_acceptance.py"):
        return None
    for tag in CRITERIA:
        if name.startswith(f"test_{tag}_") or name == f"test_{tag}":
            return tag
    return None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, dict[str, int]] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            tag = _criterion_of(getattr(report, "nodeid", ""))
            if tag is not None:
                bucket = outcomes.setdefault(tag, {"passed": 0, "failed": 0})
                bucket["passed" if status == "passed" else "failed"] += 1
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for tag, text in CRITERIA.items():
        if tag not in outcomes:
            continue
        counts = outcomes[tag]
        verdict = "PASS" if counts["failed"] == 0 else "FAIL"
        detail = f"{counts['passed']} passed"
        if counts["failed"]:
            detail += f", {counts['failed']} failed"
        terminalreporter.write_line(
            f"criterion {tag[1:]}: {verdict} — {text} ({detail})")
