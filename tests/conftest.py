"""Shared helpers: seeded random admissible rates and simplex points, the
benchmark's workload module and the catalog benchmark's rates."""

import functools
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sisi import dynamics
from sisi.model import ModelParams, validate_params


def random_admissible(rng: np.random.Generator, attempts: int = 10_000) -> ModelParams:
    """Rejection-sample rates against the nine admissibility inequalities."""
    for _ in range(attempts):
        b = rng.uniform(0.0, 0.9)
        p = ModelParams(
            b=b,
            alpha=rng.uniform(0.0, 1.0 - b),
            beta1=rng.uniform(0.0, 1.2),
            beta2=rng.uniform(0.0, 1.2),
            k1=rng.uniform(0.0, 1.6),
            k2=rng.uniform(0.0, 1.6),
        )
        if validate_params(p).ok:
            return p
    raise AssertionError("could not sample admissible rates")


def random_point(rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(4))


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py``, imported with its directory
    on ``sys.path`` only while it loads."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


@functools.cache
def catalog_workload_rates() -> tuple:
    """The rates of the ``catalog`` benchmark, rounds 0-2 of seeds 0-9."""
    catalog_inputs = perfbench_workloads().catalog_inputs
    return tuple(rates for seed in range(10) for rnd in range(3)
                 for rates, _ in catalog_inputs(seed, rnd))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def no_child_left():
    """Fail the test if it leaves a child process of this one unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force_scan_parts(n, monkeypatch) -> SimpleNamespace:
    """Force scans onto ``n`` processes, down to one row of work, by patching
    the CPU count this process sees; return ``n`` and the list that collects
    the pids of the children forked from now on."""
    cpus = set(range(n))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(dynamics, "_SPLIT_MIN", 1)
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return SimpleNamespace(n=n, forked=forked)


@pytest.fixture(params=[1, 2], ids=["one-part", "two-parts"])
def scan_parts(request, monkeypatch, no_child_left) -> SimpleNamespace:
    """Scans forced onto one process or split over two."""
    return _force_scan_parts(request.param, monkeypatch)


@pytest.fixture
def one_scan_part(monkeypatch, no_child_left) -> SimpleNamespace:
    """Scans forced onto one process, for a test not parametrized by path."""
    return _force_scan_parts(1, monkeypatch)
