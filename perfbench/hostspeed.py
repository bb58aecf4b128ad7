"""Host-speed reference: a fixed probe timed while the workloads run.

The machine this benchmark runs on is shared, and its speed drifts by tens
of percent over seconds to minutes; CPU time drifts with wall time, so the
slowdown is the processor itself, not lost scheduling.  The probe below
does the same kind of work as the program (Python calls on float tuples,
small numpy array operations) and never calls it, so a change to the
program cannot change the work it does.  A pass is scaled by
``nominal / mean probe time``, which reports it as if the probes had taken
their nominal time and cancels most of the drift.

Probes are spread through each pass so that they sample the host's speed
where the program ran: between requests every ``workloads.PROBE_EVERY``
requests, and on an interval timer during a scan command, which is one
long call.  Their time is kept out of the measured time.  The probes run in
the program's process, so the program's heap and GC state can shift them
too; that is why the unscaled figure is printed beside every scaled one.
"""

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The probe's time on the 2-core Xeon host the benchmark was tuned on.
PROBE_NOMINAL_S = 0.002


def _mix(state, rate):
    a, b = state
    return (a + rate - rate * a - 0.5 * a * b, b - rate * b + 0.5 * a * b)


def probe_s() -> float:
    """Seconds for a small fixed amount of Python calls and small-array work."""
    start = perf_counter()
    state = (0.9, 0.1)
    for _ in range(3_600):
        state = _mix(state, 0.01)
    arr = np.linspace(0.0, 1.0, 64)
    for _ in range(450):
        arr = np.abs(arr * 0.5 - 0.25)
    return perf_counter() - start


def probe_factor(probes) -> float:
    """Scale for a pass with ``probes`` (seconds each) spread through it."""
    return len(probes) * PROBE_NOMINAL_S / sum(probes)


@contextmanager
def probing(period_s: float, probes: list):
    """Append a probe's seconds to ``probes`` on entry, so that a short block
    has one, then every ``period_s`` seconds of the block; an interval timer
    interrupts the main thread for each.  A period of 0 takes no probes."""
    if not period_s:
        yield
        return
    probes.append(probe_s())
    previous = signal.signal(signal.SIGALRM, lambda *_: probes.append(probe_s()))
    signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
