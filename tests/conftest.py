"""Shared helpers: seeded random admissible rates and simplex points."""

import os
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def no_child_left():
    """Fail the test if it leaves a child process of this one unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[1, 2], ids=["one-part", "two-parts"])
def scan_parts(request, monkeypatch, no_child_left) -> SimpleNamespace:
    """Scans forced onto one process or split over two, down to one row of
    work, by patching the CPU count this process sees; yields the number of
    parts and the pids of the children forked since."""
    cpus = set(range(request.param))
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
    yield SimpleNamespace(n=request.param, forked=forked)
