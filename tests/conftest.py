"""Shared fixtures and the acceptance-criteria summary printer."""

import numpy as np
import pytest

# Populated by tests/test_acceptance.py; printed after the run so each
# criterion shows one PASS/FAIL line even under output capture.
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_acceptance(number: int, description: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (description, passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        desc, ok, detail = ACCEPTANCE_RESULTS[num]
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def forward_calls(monkeypatch):
    """Record (rows, layers run) of every network_forward_batch call.

    The wrapper replaces the function wherever masonet binds it: in
    `layers` (which `network_forward` and `learn` look it up through),
    `partition` and `analysis`.  Calls that raise are not recorded.
    """
    from masonet import analysis, layers, partition

    calls = []
    forward = layers.network_forward_batch

    def recorded(net, X, *args, **kwargs):
        out, caches = forward(net, X, *args, **kwargs)
        calls.append((len(X), len(caches)))
        return out, caches

    for module in (layers, partition, analysis):
        monkeypatch.setattr(module, "network_forward_batch", recorded)
    return calls
