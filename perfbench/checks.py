"""Output checks for the three workloads, and a self-test of the checks.

Each check takes plain data (parsed JSON, floats, tuples), so the self-test
can feed it tampered records without running the program.  The tolerances
and the scan's budget are pinned here, not read from the program's output,
so that a change to the program's constants cannot loosen the checks or
buy speed with a smaller budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SCAN_RECORDS = 5 ** 6 * 5      # cells x initial points per scan command
# ``sisi scan``'s defaults: steps per row, step-size stop, match distance.
# Threshold rows decay like c/n and stay inconclusive under any budget, so
# only a pinned max_iter keeps a smaller budget from passing as a speed-up.
SCAN_MAX_ITER = 20_000
SCAN_TOL_STEP = 1e-11
SCAN_MATCH_TOL = 1e-4
SCAN_PINNED = {"max_iter": SCAN_MAX_ITER, "tol_step": SCAN_TOL_STEP,
               "match_tol": SCAN_MATCH_TOL}
VERDICTS = ("match", "counterexample", "inconclusive", "no-claim", "inadmissible")
LIMIT_TOL = 1e-6               # predicted vs detected limit
RESIDUAL_TOL = 1e-10           # one-step residual of a fixed point
CONJUGACY_TOL = 1e-12          # sup-norm of the conjugacy identity
LAMBDA1_MARGIN = 1e-2          # distance from the nonhyperbolic boundary


def step(point, rates):
    """One application of the SISI operator, written out independently."""
    x, u, y, v = point
    b, al, b1, b2, k1, k2 = rates
    A = k1 * u + k2 * v
    return (x + b - b * x - b1 * A * x,
            u - b * u + b1 * A * x - al * u,
            y - b * y + al * u - b2 * A * y,
            v - b * v + b2 * A * y)


def residual(point, rates) -> float:
    return max(abs(a - c) for a, c in zip(step(point, rates), point))


# ---------------------------------------------------------------- scan


def scan_record_problem(rec: dict) -> str | None:
    """Why a scan record's verdict is not justified by its own data, if so.

    The rules are those of the acceptance suite's scan criterion, applied
    with the pinned tolerances and budget.
    """
    verdict = rec.get("verdict")
    dist, fstep = rec.get("distance"), rec.get("final_step")
    match_tol, tol_step = SCAN_MATCH_TOL, SCAN_TOL_STEP
    if verdict == "inadmissible":
        ok = rec.get("limit") is None
    elif verdict == "no-claim":
        ok = rec.get("target") is None
    elif verdict == "match":
        ok = dist <= match_tol
    elif verdict == "counterexample":
        ok = dist > match_tol and fstep <= tol_step
    elif verdict == "inconclusive":
        ok = (fstep > tol_step and dist > match_tol
              and rec.get("iterations") == SCAN_MAX_ITER)
    else:
        return f"unknown verdict {verdict!r}"
    return None if ok else f"{verdict} not justified (distance={dist}, final_step={fstep})"


@dataclass
class ScanTally:
    records: int = 0
    row_steps: int = 0
    inconclusive_steps: int = 0
    claims: int = 0
    decided: int = 0
    verdicts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(why)
        else:
            self.problems[-1] = f"... and more; last: {why}"


def check_scan_lines(lines, conjecture: int, seed: int,
                     n_records: int = SCAN_RECORDS) -> ScanTally:
    """Check a scan's JSONL output (header line, then one record per line)."""
    tally = ScanTally()
    lines = iter(lines)
    try:
        header = json.loads(next(lines))
    except (StopIteration, ValueError):
        tally.fail("missing or unreadable header")
        return tally
    if (header.get("conjecture"), header.get("seed")) != (conjecture, seed):
        tally.fail(f"header names conjecture {header.get('conjecture')} seed {header.get('seed')}")
    settings = {k: header.get(k) for k in SCAN_PINNED}
    if settings != SCAN_PINNED:
        tally.fail(f"header settings {settings}, pinned {SCAN_PINNED}")
    for line in lines:
        tally.records += 1
        try:
            rec = json.loads(line)
            verdict = rec["verdict"]
            tally.verdicts[verdict] = tally.verdicts.get(verdict, 0) + 1
            tally.row_steps += rec["iterations"]
            if verdict == "inconclusive":
                tally.inconclusive_steps += rec["iterations"]
            if rec["target"] is not None:
                tally.claims += 1
                tally.decided += verdict in ("match", "counterexample")
            why = scan_record_problem(rec)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"malformed record ({exc!r})"
        if why:
            tally.fail(f"record {tally.records}: {why}")
    expected = header.get("n_cells", 0) * header.get("n_init", 0)
    if tally.records != n_records or expected != n_records:
        tally.fail(f"{tally.records} records, header says {expected}, expected {n_records}")
    summary = header.get("summary", {})
    for verdict in VERDICTS:
        if summary.get(verdict, 0) != tally.verdicts.get(verdict, 0):
            tally.fail(f"header summary {summary} disagrees with records {tally.verdicts}")
            break
    return tally


# ---------------------------------------------------------------- limits


def limit_problem(rates, converged: bool, limit, match, target, iterations: int,
                  max_iter: int) -> str | None:
    """Why a detected limit fails: not converged, not fixed, or a wrong match.

    ``target`` is the predicted limit (NaN marks a free coordinate) or None.
    """
    if not converged:
        # An undecided report is honest only if the whole budget was spent.
        if limit is None and match is None and iterations == max_iter:
            return None
        return f"not converged after {iterations} of {max_iter} steps"
    if limit is None or iterations > max_iter:
        return f"converged without a limit, or past the budget ({iterations} steps)"
    res = residual(limit, rates)
    if not res <= RESIDUAL_TOL:
        return f"limit residual {res:.3g} exceeds {RESIDUAL_TOL:g}"
    if match is False:
        return "limit does not match the prediction"
    if match is True:
        dev = max((abs(a - t) for a, t in zip(limit, target) if not math.isnan(t)),
                  default=0.0)
        if not dev <= LIMIT_TOL:
            return f"reported match, but pinned deviation is {dev:.3g}"
    elif target is not None:
        return "a prediction was made but no match was reported"
    return None


# ---------------------------------------------------------------- catalog


@dataclass
class CatalogResult:
    """What one catalog request produced, reduced to plain values."""

    rates: tuple
    admissible: bool
    points: list            # (label, coordinates, reported residual) per isolated point
    family_residuals: list  # reported residual per fixed family
    lambda1_closed: str     # classify_lambda1
    lambda1_generic: str    # classify_at at lambda_1
    axioms_ok: bool
    conjugacy_sup: float | None


def lambda1_resolved(rates) -> bool:
    """True where the generic eigenvalue path is expected to resolve lambda_1.

    At lambda_1 the eigenvalue 1 - b is triple, and a root cluster is only
    resolved to about eps**(1/3); for b below 1e-3 the generic path can put
    it on the wrong side of the unit circle.  The margin is the one the test
    suite pins for this comparison: b and |beta1*k1 - (b + alpha)| >= 1e-2.
    """
    b, al, b1, _, k1, _ = rates
    return b >= LAMBDA1_MARGIN and abs(b1 * k1 - (b + al)) >= LAMBDA1_MARGIN


def lambda1_disagrees(closed: str, generic: str) -> bool:
    """The generic path contradicts a hyperbolic closed-form class at lambda_1."""
    return closed != "nonhyperbolic" and generic != closed


def catalog_problem(r: CatalogResult) -> str | None:
    if not r.admissible:
        return "generated rates reported inadmissible"
    if not r.points or r.points[0][0] != "lambda_1":
        return "catalog does not start with lambda_1"
    for label, point, reported in r.points:
        res = residual(point, r.rates)
        if not (reported <= RESIDUAL_TOL and res <= RESIDUAL_TOL):
            return f"{label} residual {max(reported, res):.3g} exceeds {RESIDUAL_TOL:g}"
    for reported in r.family_residuals:
        if not reported <= RESIDUAL_TOL:
            return f"fixed family residual {reported:.3g} exceeds {RESIDUAL_TOL:g}"
    if lambda1_disagrees(r.lambda1_closed, r.lambda1_generic) and lambda1_resolved(r.rates):
        return (f"lambda_1 is {r.lambda1_closed} in closed form "
                f"but {r.lambda1_generic} by eigenvalues")
    if not r.axioms_ok:
        return "heredity tensor violates its axioms"
    if r.conjugacy_sup is not None and not r.conjugacy_sup <= CONJUGACY_TOL:
        return f"conjugacy sup-norm {r.conjugacy_sup:.3g} exceeds {CONJUGACY_TOL:g}"
    return None


# ---------------------------------------------------------------- self-test


def self_test() -> list[str]:
    """Feed every check a valid case and tampered ones; list what it missed."""
    missed = []

    def expect(name, why, bad):
        if (why is not None) != bad:
            missed.append(f"{name}: {'accepted' if bad else 'rejected'} ({why})")

    header = {"conjecture": 2, "seed": 0, "n_cells": 5 ** 6, "n_init": 5,
              "max_iter": 20_000, "tol_step": 1e-11, "match_tol": 1e-4}
    good = {"verdict": "match", "target": "lambda_1", "distance": 1e-9,
            "iterations": 16, "final_step": 1e-12, "limit": [1.0, 0.0, 0.0, 0.0]}
    expect("scan match", scan_record_problem(good), False)
    for name, change in (
        ("scan match beyond match_tol", {"distance": 2e-4}),
        ("scan match with NaN distance", {"distance": math.nan}),
        ("scan counterexample still moving", {"verdict": "counterexample",
                                              "distance": 0.5, "final_step": 1e-6}),
        ("scan inconclusive under budget", {"verdict": "inconclusive", "distance": 0.5,
                                            "final_step": 1e-6, "iterations": 19_984}),
        ("scan inadmissible with a limit", {"verdict": "inadmissible"}),
        ("scan no-claim with a target", {"verdict": "no-claim"}),
        ("scan unknown verdict", {"verdict": "maybe"}),
    ):
        expect(name, scan_record_problem({**good, **change}), True)
    small = {**header, "n_cells": 2, "summary": {"match": 10}}
    lines = [json.dumps(small)] + [json.dumps(good)] * 10

    def file_problem(lines):
        return (check_scan_lines(lines, 2, 0, n_records=10).problems or [None])[0]

    expect("scan file", file_problem(lines), False)
    expect("scan file missing a record", file_problem(lines[:-1]), True)
    expect("scan file for another seed", file_problem(
        [json.dumps({**small, "seed": 1})] + lines[1:]), True)
    expect("scan file with a smaller budget", file_problem(
        [json.dumps({**small, "max_iter": 2_000})] + lines[1:]), True)
    expect("scan file with a looser match_tol", file_problem(
        [json.dumps({**small, "match_tol": 1e-2})] + lines[1:]), True)
    inconclusive = {**good, "verdict": "inconclusive", "distance": 0.5,
                    "final_step": 1e-6, "iterations": 2_000}
    expect("scan file whose rows stop at a smaller budget", file_problem(
        [json.dumps({**small, "max_iter": 2_000, "summary": {"inconclusive": 10}})]
        + [json.dumps(inconclusive)] * 10), True)
    lines[7] = json.dumps({**good, "distance": 1.0})
    expect("scan file with a tampered record", file_problem(lines), True)

    rates = (0.5, 0.2, 0.0, 0.0, 1.0, 0.3)
    e1, target = (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)
    expect("limit", limit_problem(rates, True, e1, True, target, 40, 200_000), False)
    expect("limit without prediction",
           limit_problem(rates, True, e1, None, None, 40, 200_000), False)
    expect("limit undecided after the whole budget",
           limit_problem(rates, False, None, None, target, 200_000, 200_000), False)
    for name, args in (
        ("limit not converged under budget", (False, None, None, target, 40)),
        ("limit not converged but matched", (False, None, True, target, 200_000)),
        ("limit not a fixed point", (True, (0.9, 0.1, 0.0, 0.0), None, None, 40)),
        ("limit reported as mismatch", (True, e1, False, target, 40)),
        ("limit match beyond tolerance", (True, e1, True, (0.99, 0.01, 0.0, 0.0), 40)),
        ("limit prediction without verdict", (True, e1, None, target, 40)),
    ):
        expect(name, limit_problem(rates, *args, 200_000), True)

    ok = CatalogResult(rates, True, [("lambda_1", e1, 0.0)], [], "attracting",
                       "attracting", True, 0.0)
    expect("catalog", catalog_problem(ok), False)
    for name, change in (
        ("catalog inadmissible", {"admissible": False}),
        ("catalog residual", {"points": [("lambda_1", e1, 1e-9)]}),
        ("catalog point not fixed", {"points": [("lambda_1", (0.5, 0.5, 0.0, 0.0), 0.0)]}),
        ("catalog family residual", {"family_residuals": [1e-9]}),
        ("catalog classification", {"lambda1_generic": "saddle"}),
        ("catalog classification near b = 0.02",
         {"lambda1_generic": "saddle", "rates": (0.02, 0.2, 0.0, 0.0, 1.0, 0.3)}),
        ("catalog tensor axioms", {"axioms_ok": False}),
        ("catalog conjugacy", {"conjugacy_sup": 1e-11}),
    ):
        expect(name, catalog_problem(CatalogResult(**{**ok.__dict__, **change})), True)
    near = CatalogResult(**{**ok.__dict__, "rates": (1e-6, 0.2, 0.0, 0.0, 1.0, 0.3),
                            "lambda1_generic": "saddle"})
    expect("catalog classification at b = 1e-6, unresolved", catalog_problem(near), False)
    return missed


if __name__ == "__main__":
    import sys

    missed = self_test()
    print("\n".join(missed) or "checker self-test passed")
    sys.exit(1 if missed else 0)
