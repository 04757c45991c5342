"""Shared fixtures.

The built-in suite is expensive (20 runs plus delayed reruns), so it is
executed once per session at each of two parallelism levels and shared by
the scenario, CLI, and acceptance tests.
"""
import time

import pytest

from smclab import scenarios


@pytest.fixture(scope="session")
def suite_serial(tmp_path_factory):
    """(SuiteResult, out_dir, wall seconds) at parallelism 1."""
    out = tmp_path_factory.mktemp("suite_p1")
    t0 = time.perf_counter()
    result = scenarios.run_suite(scenarios.builtin_suite(), out, parallelism=1)
    return result, out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def suite_parallel(tmp_path_factory):
    """(SuiteResult, out_dir) of a second run in this process, at parallelism
    4: the determinism checks compare its bytes with ``suite_serial``'s."""
    out = tmp_path_factory.mktemp("suite_p4")
    result = scenarios.run_suite(scenarios.builtin_suite(), out, parallelism=4)
    return result, out
