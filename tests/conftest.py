"""Shared test configuration: deterministic hypothesis profile, lenient gates."""

import pytest
from hypothesis import HealthCheck, settings

from rieszmart import DEFAULT_TOL, inequalities, limits
from rieszmart.processes import classify, decide_gates, require_difference_sequence

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def lenient_gates(monkeypatch):
    """Hypothesis gates keep the default slack, so a negative one fails
    comparisons only."""
    gates = {"classify": classify, "require_difference_sequence": require_difference_sequence}
    for module in (inequalities, limits):
        for name, gate in gates.items():
            monkeypatch.setattr(module, name, lambda proc, tol=None, gate=gate: gate(proc, DEFAULT_TOL))
    # The batched suites decide every gate, exact fallback included, in decide_gates.
    monkeypatch.setattr(
        inequalities,
        "decide_gates",
        lambda stages, values, tol, labels=True: decide_gates(stages, values, DEFAULT_TOL, labels),
    )
