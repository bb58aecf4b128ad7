"""The three workloads: seeded inputs, one request each, and their checks.

Every workload runs closed-loop from one thread: one caller that waits for
each result before sending the next.  Inputs come from ``--seed`` alone; the
program sees only the generated rates, points and command lines.

* ``scan``: the ``sisi scan`` command for conjectures 1 and 2, in process.
* ``limits``: ``predicted_limit`` then ``detect_limit`` from a random point.
* ``catalog``: admissibility, fixed points, stability, tensor, balance
  curves and (for no-recovery rates) the logistic conjugacy; no iteration.

``limits`` and ``catalog`` run in rounds of a fixed batch.  Round 0 is the
same batch for a given seed in every run, so its counts repeat exactly;
later rounds draw fresh inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from sisi import cli, conjugacy, dynamics, fixpoints, model, stability, tensor

import checks
import hostspeed

LIMIT_BATCH = 1_200
LIMIT_MAX_ITER = 200_000
CATALOG_BATCH = 1_000
CONJUGACY_GRID = 10_000
PROBE_EVERY = 100       # requests between two host-speed probes
PROBE_PERIOD_S = 0.2    # seconds between two host-speed probes in a scan command

# The workload's calls into each layer, by the name bound where the call is
# made, mapped to the span name reported for that layer.
TRACED = {
    "sisi.cli.cmd_scan": "cli.scan",
    "sisi.cli.conjecture_scan": "dynamics.conjecture_scan",
    "sisi.dynamics.ScanReport.to_jsonl": "dynamics.to_jsonl",
    "sisi.model.validate_params": "model.validate_params",
    "sisi.dynamics.predicted_limit": "dynamics.predicted_limit",
    "sisi.dynamics.detect_limit": "dynamics.detect_limit",
    "sisi.dynamics.fixed_point_set": "fixpoints.fixed_point_set",
    "sisi.fixpoints.fixed_point_set": "fixpoints.fixed_point_set",
    "sisi.stability.classify_lambda1": "stability.classify_lambda1",
    "sisi.stability.classify_at": "stability.classify_at",
    "sisi.tensor.build_tensor": "tensor.build_tensor",
    "sisi.tensor.check_axioms": "tensor.check_axioms",
    "sisi.dynamics.equilibrium_curves": "dynamics.equilibrium_curves",
    "sisi.conjugacy.verify_conjugacy": "conjugacy.verify_conjugacy",
}


def admissible(rates) -> bool:
    """The nine simplex-preservation inequalities, written out independently."""
    b, al, b1, b2, k1, k2 = rates
    return (al + b <= 1 and b1 * k2 <= 2 and b2 * k1 <= 2 and b + b2 * k2 <= 1
            and abs(b - b1 * k1) <= 1 and abs(b - b2 * k2) <= 1
            and abs(b - b1 * k2) <= 1 and abs(al + b - b1 * k1) <= 1
            and abs(al - b - b2 * k1) <= 1)


def draw_box(rng) -> tuple:
    """Rates from the test suite's sampling box, rejected until admissible."""
    while True:
        b = rng.uniform(0.0, 0.9)
        rates = (b, rng.uniform(0.0, 1.0 - b), rng.uniform(0.0, 1.2),
                 rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.6), rng.uniform(0.0, 1.6))
        if admissible(rates):
            return rates


def draw_no_recovery(rng) -> tuple:
    """alpha = beta2 = k2 = 0, k1 = 1 and b < beta1 <= min(2, 1 + b)."""
    while True:
        b = rng.uniform(0.0, 0.9)
        beta1 = rng.uniform(b, min(2.0, 1.0 + b))
        rates = (b, 0.0, beta1, 0.0, 1.0, 0.0)
        if beta1 > b and admissible(rates):
            return rates


def limit_inputs(seed: int, rnd: int) -> list:
    rng = np.random.default_rng([seed, 1, rnd])
    return [(draw_box(rng), tuple(rng.dirichlet(np.ones(4))))
            for _ in range(LIMIT_BATCH)]


def catalog_inputs(seed: int, rnd: int) -> list:
    """7 in 8 requests from the sampling box, 1 in 8 from the no-recovery family."""
    rng = np.random.default_rng([seed, 2, rnd])
    return [(draw_no_recovery(rng), True) if i % 8 == 7 else (draw_box(rng), False)
            for i in range(CATALOG_BATCH)]


def limit_request(rates, point):
    p = model.ModelParams(*rates)
    s0 = model.SimplexPoint(*point)
    pred = dynamics.predicted_limit(s0, p)
    return pred, dynamics.detect_limit(s0, p, max_iter=LIMIT_MAX_ITER, predicted=pred)


def limit_problem(inp, out) -> str | None:
    rates = inp[0]
    pred, rep = out
    limit = None if rep.limit is None else tuple(float(c) for c in rep.limit)
    target = None if pred is None else tuple(float(c) for c in pred.target)
    return checks.limit_problem(rates, rep.converged, limit, rep.match, target,
                                rep.iterations, LIMIT_MAX_ITER)


def catalog_request(rates, no_recovery):
    p = model.ModelParams(*rates)
    ok = model.validate_params(p).ok
    catalog = fixpoints.fixed_point_set(p)
    closed = stability.classify_lambda1(p)
    generic = [stability.classify_at(model.SimplexPoint.from_array(fp.point), p)
               for fp in catalog if fp.point is not None]
    axioms = tensor.check_axioms(tensor.build_tensor(p)).ok
    if p.b > 0.0:
        dynamics.equilibrium_curves(p)
    sup = conjugacy.verify_conjugacy(p, grid_size=CONJUGACY_GRID) if no_recovery else None
    return ok, catalog, closed, generic, axioms, sup


def catalog_problem(inp, out) -> str | None:
    ok, catalog, closed, generic, axioms, sup = out
    points = [(fp.label, tuple(float(c) for c in fp.point), fp.residual)
              for fp in catalog if fp.point is not None]
    return checks.catalog_problem(checks.CatalogResult(
        rates=inp[0], admissible=ok, points=points,
        family_residuals=[fp.residual for fp in catalog if fp.point is None],
        lambda1_closed=closed.classification,
        lambda1_generic=generic[0].classification if generic else "missing",
        axioms_ok=axioms, conjugacy_sup=sup))


def limit_undecided(inp, out) -> bool:
    """Budget spent without converging: honest, but no limit was decided."""
    return not out[1].converged


def limit_counts(outs) -> dict:
    reports = [rep for _, rep in filter(None, outs)]
    return {"dynamics.detect_limit.steps": sum(rep.iterations for rep in reports),
            "dynamics.detect_limit.undecided": sum(not rep.converged for rep in reports)}


def catalog_counts(outs) -> dict:
    """``lambda1_wrong_class`` counts every request whose generic class at
    lambda_1 contradicts a hyperbolic closed form.  Inside the check's margin
    it is not a failure, but it is a wrong answer, not a refusal."""
    done = [o for o in outs if o is not None]
    return {"stability.classify_at.points": sum(len(o[3]) for o in done),
            "lambda1_wrong_class": sum(
                1 for o in done
                if o[3] and checks.lambda1_disagrees(o[2].classification, o[3][0].classification))}


@dataclass
class Batch:
    """One pass over a list of requests."""

    latencies_ms: list[float]
    wall_s: float
    failures: list[str]
    undecided: int          # honest refusals and unresolved answers
    counts: dict
    probes: list[float]     # seconds of each host-speed probe, outside wall_s

    @property
    def ops(self) -> int:
        return len(self.latencies_ms)


@dataclass
class Kind:
    inputs: object
    request: object
    problem: object    # (input, output) -> why the output is wrong, or None
    undecided: object  # (input, output) -> True if correct but not decided
    refusals: tuple    # exceptions the program documents as declining to answer
    counts: object
    defects: tuple = ()  # counts of wrong answers the checks tolerate


KINDS = {
    "limits": Kind(limit_inputs, limit_request, limit_problem, limit_undecided,
                   (), limit_counts),
    # classify_at raises NonConvergence rather than guess an eigenvalue.
    "catalog": Kind(catalog_inputs, catalog_request, catalog_problem, lambda inp, out: False,
                    (stability.NonConvergence,), catalog_counts, ("lambda1_wrong_class",)),
}


def run_batch(kind: Kind, inputs, tracer=None, probe=False) -> Batch:
    """Send each request after the previous one returned; check afterwards.

    With ``probe``, a host-speed probe runs before every ``PROBE_EVERY``-th
    request; its time is kept out of the latencies and of ``wall_s``.
    """
    lat, outs, probes = [], [], []
    request = kind.request
    start = perf_counter()
    for i, inp in enumerate(inputs):
        if probe and i % PROBE_EVERY == 0:
            probes.append(hostspeed.probe_s())
        t0 = perf_counter()
        try:
            if tracer is None:
                out = request(*inp)
            else:
                with tracer.span("request", i):
                    out = request(*inp)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        lat.append((perf_counter() - t0) * 1e3)
        outs.append(out)
    wall = perf_counter() - start - sum(probes)
    failures, undecided = [], 0
    for inp, out in zip(inputs, outs):
        if isinstance(out, kind.refusals):
            undecided += 1
            continue
        why = (f"raised {out!r}" if isinstance(out, Exception)
               else kind.problem(inp, out))
        if why:
            failures.append(f"request {inp[0]}: {why}")
        elif kind.undecided(inp, out):
            undecided += 1
    counts = kind.counts([None if isinstance(o, Exception) else o for o in outs])
    counts["refused"] = sum(1 for o in outs if isinstance(o, kind.refusals))
    return Batch(lat, wall, failures, undecided, counts, probes)


# ---------------------------------------------------------------- scan


@dataclass
class ScanRun:
    """One ``sisi scan`` command and what its output showed."""

    conjecture: int
    seconds: float
    tally: checks.ScanTally
    jsonl_bytes: int
    digest: str
    probes: list[float]     # seconds of each host-speed probe, outside seconds
    problems: list[str] = field(default_factory=list)


def run_scan(conjecture: int, seed: int, out_dir: str, tracer=None,
             probe=False) -> ScanRun:
    """Run one scan command in process, then check and delete its output.

    With ``probe``, host-speed probes run every ``PROBE_PERIOD_S`` seconds
    of the command; their time is kept out of ``seconds``.
    """
    path = os.path.join(out_dir, f"scan-conj{conjecture}-seed{seed}.jsonl")
    argv = ["scan", "--conjecture", str(conjecture), "--seed", str(seed), "--out", path]
    stderr = io.StringIO()
    probes = []
    with (contextlib.redirect_stderr(stderr),
          hostspeed.probing(PROBE_PERIOD_S if probe else 0.0, probes)):
        t0 = perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main", f"conj{conjecture}"):
                code = cli.main(argv)
        seconds = perf_counter() - t0 - sum(probes[1:])  # probes[0] ran before t0
    problems = [] if code == 0 else [f"exit code {code}: {stderr.getvalue().strip()}"]
    digest = hashlib.sha256()
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        with open(path, encoding="utf-8") as fh:
            tally = checks.check_scan_lines(fh, conjecture, seed)
        os.remove(path)
    except OSError as exc:
        size, tally = 0, checks.ScanTally(problems=[f"no output: {exc}"])
    return ScanRun(conjecture, seconds, tally, size, digest.hexdigest(), probes,
                   problems + tally.problems)
