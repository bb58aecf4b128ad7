"""Command-line front end.

Subcommands: validate, simulate, fixpoints, classify, conjugacy, scan,
tensor-dump.  Configuration is a flat key=value file, then --params, then
flags; ``_READS`` says what each subcommand reads, and any other key is an
error.  Every report echoes the parsed configuration in canonical form,
so identical configuration and seed produce byte-identical output.

Exit codes: 0 ok, 1 negative domain result (inadmissible rates, failed
identity, counterexample found), 2 malformed input or an ``--out`` path that
cannot be written, 3 non-convergence, 141 the reader of stdout left early.

Figure presets 1-4 are trajectory runs converging to the cataloged limits;
presets 5 and 6 emit the equilibrium balance curves (CSV columns x,f,g)
in the one-crossing and no-crossing regimes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from sisi.model import (
    InadmissibleParams,
    ModelParams,
    NegativeParameter,
    SimplexPoint,
    Trajectory,
    validate_params,
)
from sisi.tensor import build_tensor, tensor_rows
from sisi.fixpoints import fixed_point_set
from sisi.stability import LAMBDA1, classify_at, classify_lambda1
from sisi.conjugacy import (
    QuadraticMap1D,
    _require_edge_regime,
    classify_1d_fixed_points,
    conjugacy_map,
    verify_conjugacy,
)
from sisi.dynamics import (
    conjecture_scan,
    detect_limit,
    equilibrium_curves,
    predicted_limit,
)

OK, DOMAIN_NEGATIVE, BAD_INPUT, NO_CONVERGENCE = 0, 1, 2, 3
BROKEN_PIPE = 128 + 13  # what a shell reports for a command ended by SIGPIPE

_PARAM_KEYS = ("b", "alpha", "beta1", "beta2", "k1", "k2")

# (rates, initial point or None, kind) per figure preset
_FIGURES: dict[int, tuple[tuple[float, ...], tuple[float, ...] | None, str]] = {
    1: ((0.6, 0.2, 0.5, 0.0, 1.0, 0.3), (0.1, 0.01, 0.2, 0.69), "trajectory"),
    2: ((0.1, 0.2, 0.5, 0.0, 1.0, 0.3), (0.3, 0.2, 0.4, 0.1), "trajectory"),
    3: ((0.6, 0.1, 0.5, 0.01, 1.2, 1.1), (0.2, 0.1, 0.3, 0.4), "trajectory"),
    4: ((0.1, 0.01, 0.8, 0.2, 0.5, 1.2), (0.2, 0.4, 0.1, 0.3), "trajectory"),
    5: ((0.2, 0.3, 0.6, 0.4, 1.0, 1.0), None, "curves"),
    6: ((0.6, 0.1, 0.5, 0.01, 1.2, 1.1), None, "curves"),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    params: ModelParams | None = None
    init: SimplexPoint | None = None
    figure: int | None = None
    out: str | None = None
    seed: int = 0
    max_iter: int = 1_000_000
    tol_step: float = 1e-12
    tol_fix: float = 1e-10
    grid: int = 10_000
    kind: str = "trajectory"

    def echo(self) -> str:
        """Canonical one-line form of the parsed configuration."""
        parts = []
        if self.params is not None:
            parts += [f"{k}={_fmt(getattr(self.params, k))}" for k in _PARAM_KEYS]
        if self.init is not None:
            parts.append("init=" + ",".join(_fmt(c) for c in self.init.as_tuple()))
        if self.figure is not None:
            parts.append(f"figure={self.figure}")
        parts += [
            f"seed={self.seed}",
            f"max_iter={self.max_iter}",
            f"tol_step={_fmt(self.tol_step)}",
            f"tol_fix={_fmt(self.tol_fix)}",
            f"grid={self.grid}",
        ]
        return " ".join(parts)


class ConfigError(ValueError):
    pass


def _parse_pairs(tokens) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _read_config_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    return _parse_pairs(line for line in lines if line)


def _point(text: str) -> SimplexPoint:
    coords = [float(t) for t in text.split(",")]
    if len(coords) != 4:
        raise ConfigError("init needs four comma-separated coordinates")
    return SimplexPoint(*coords)


# Keys that a config file, --params or the flag of the same name may set,
# and how each value is read.
_PAIRS = {**dict.fromkeys(_PARAM_KEYS, float), "init": _point, "max_iter": int,
          "tol_step": float, "tol_fix": float, "grid": int, "seed": int}

# argparse settings of every flag but --config and --out, by key.
_FLAGS = {
    "params": dict(nargs="*", metavar="KEY=VALUE",
                   help="rates: b, alpha, beta1, beta2, k1, k2 (missing keys default to 0)"),
    "figure": dict(type=int, choices=sorted(_FIGURES), help="preset; fixes the rates and init"),
    "init": dict(help="initial point as x,u,y,v"),
    "max_iter": dict(type=int),
    "tol_step": dict(type=float),
    "tol_fix": dict(type=float),
    "grid": dict(type=int, help="conjugacy grid points (default 10000)"),
    "seed": dict(type=int, help="rng seed (default 0)"),
    "format": dict(choices=("json", "csv"), default="json"),
    "root": dict(choices=("one", "interior"), default="one"),
    "conjecture": dict(type=int, choices=(1, 2), required=True),
    "inits": dict(type=int, default=5, help="initial points per cell"),
}

# What each subcommand reads besides --config and --out: these flags, and
# those of these keys that are in _PAIRS from a config file or --params,
# where "params" stands for the six rates.  Any other key is an error.
_READS = {
    "validate": ("params", "figure"),
    "simulate": ("params", "figure", "init", "max_iter", "tol_step", "tol_fix"),
    "fixpoints": ("params", "figure"),
    "classify": ("params", "figure", "init", "format"),
    "conjugacy": ("params", "grid", "root"),
    "scan": ("seed", "conjecture", "inits"),
    "tensor-dump": ("params", "figure"),
}


def _resolve(args) -> RunConfig:
    """Config file, then --params, then flags; then one check of the keys.

    A key the subcommand does not read is an error, and so is a rate or
    ``init`` beside ``--figure``, whose preset fixes both, and an ``--out``
    path that cannot be opened for writing.
    """
    opts = vars(args)
    reads = _READS[args.command]
    pairs = _read_config_file(args.config) if args.config else {}
    pairs.update(_parse_pairs(opts.get("params") or ()))
    pairs.update((k, v) for k, v in opts.items() if k in _PAIRS and v is not None)
    readable = (*_PARAM_KEYS, *reads) if "params" in reads else reads
    unread = [k for k in pairs if k not in _PAIRS or k not in readable]
    if unread:
        raise ConfigError(f"{args.command} does not read key(s): {', '.join(unread)}")
    figure = opts.get("figure")
    preset = [k for k in pairs if k in _PARAM_KEYS or k == "init"]
    if figure is not None and preset:
        raise ConfigError(f"--figure fixes the rates and init; drop {', '.join(preset)}")

    values = {k: _PAIRS[k](v) for k, v in pairs.items()}
    cfg = RunConfig(out=args.out,
                    **{k: v for k, v in values.items() if k not in _PARAM_KEYS})
    if figure is not None:
        rates, init, cfg.kind = _FIGURES[figure]
        cfg.figure, cfg.params = figure, ModelParams(*rates)
        if init is not None:
            cfg.init = SimplexPoint(*init)
    elif any(k in values for k in _PARAM_KEYS):
        cfg.params = ModelParams(*(values.get(k, 0.0) for k in _PARAM_KEYS))
    if cfg.out:
        _check_writable(cfg.out)
    return cfg


def _check_writable(path: str) -> None:
    """Raise ConfigError unless ``path`` opens for writing; the file is
    left as it was, and is not made until the report is written.  A named
    pipe is not opened: closing it would end the stream for its reader."""
    import os
    import stat

    existed = os.path.lexists(path)
    try:
        if existed and stat.S_ISFIFO(os.stat(path).st_mode):
            return
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_params(cfg: RunConfig) -> ModelParams:
    if cfg.params is None:
        raise ConfigError("no rates given; use --params or --figure")
    return cfg.params


def cmd_validate(args) -> int:
    cfg = _resolve(args)
    p = _require_params(cfg)
    lines = [f"# config: {cfg.echo()}"]
    try:
        report = validate_params(p)
    except NegativeParameter as exc:
        lines.append(f"malformed: {exc}")
        _emit(cfg, "\n".join(lines) + "\n")
        return BAD_INPUT
    if report.ok:
        lines.append("admissible: the operator maps the simplex into itself")
        _emit(cfg, "\n".join(lines) + "\n")
        return OK
    lines.append("inadmissible:")
    lines += [f"  {v}" for v in report.violations]
    _emit(cfg, "\n".join(lines) + "\n")
    return DOMAIN_NEGATIVE


def _curves_csv(cfg: RunConfig, p: ModelParams) -> str:
    cur = equilibrium_curves(p)
    lines = [f"# config: {cfg.echo()}"]
    lines.append(f"# value_at_zero: {_fmt(cur.value_at_zero)}")
    lines.append(f"# asymptote: {_fmt(cur.asymptote)}")
    lines.append(f"# slope_linear: {_fmt(cur.slope_linear)}")
    lines.append(f"# slope_saturating_at_zero: {_fmt(cur.slope_saturating_at_zero)}")
    lines.append(f"# sign_changes: {cur.sign_changes}")
    lines.append("# crossings: " + (",".join(_fmt(c) for c in cur.crossings) or "none"))
    lines.append("x,f,g")
    for xv, fv, gv in zip(cur.xs, cur.linear, cur.saturating):
        lines.append(f"{_fmt(xv)},{_fmt(fv)},{_fmt(gv)}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    p = _require_params(cfg)
    if cfg.kind == "curves":
        _emit(cfg, _curves_csv(cfg, p))
        return OK
    if cfg.init is None:
        raise ConfigError("no initial point given; use --init or --figure")
    pred = predicted_limit(cfg.init, p)
    states: list[tuple[float, ...]] = []
    report = detect_limit(cfg.init, p, max_iter=cfg.max_iter,
                          tol_step=cfg.tol_step, tol_fix=cfg.tol_fix,
                          predicted=pred, visited=states)
    traj = Trajectory(np.array(states), p)
    lines = [f"# config: {cfg.echo()}", "n,x,u,y,v"]
    for n, row in enumerate(traj.states):
        lines.append(f"{n}," + ",".join(_fmt(c) for c in row))
    if report.converged:
        lines.append("# converged: true")
        lines.append("# limit: " + ",".join(_fmt(c) for c in report.limit)
                     + (f" ({report.snapped})" if report.snapped else ""))
    else:
        lines.append("# converged: false")
    lines.append(f"# iterations: {report.iterations}")
    lines.append(f"# final_step: {_fmt(report.final_step)}")
    lines.append(f"# max_drift: {_fmt(traj.max_drift())}")
    if pred is not None:
        target = ",".join("free" if t != t else _fmt(t) for t in pred.target)
        lines.append(f"# predicted: {pred.regime} -> {target}"
                     + (" [conjectural]" if pred.conjectural else ""))
        lines.append(f"# match: {'n/a' if report.match is None else str(report.match).lower()}")
    else:
        lines.append("# predicted: none")
    _emit(cfg, "\n".join(lines) + "\n")
    return OK if report.converged else NO_CONVERGENCE


def cmd_fixpoints(args) -> int:
    cfg = _resolve(args)
    p = _require_params(cfg)
    catalog = fixed_point_set(p)
    table = io.StringIO()  # csv quotes a family description with commas
    rows = csv.writer(table, lineterminator="\n")
    rows.writerow(["label", "x", "u", "y", "v", "residual", "stability", "family"])
    for fp in catalog:
        coords = [""] * 4 if fp.point is None else [_fmt(c) for c in fp.point]
        rows.writerow([fp.label, *coords, _fmt(fp.residual), fp.stability or "",
                       fp.family or ""])
    _emit(cfg, f"# config: {cfg.echo()}\n{table.getvalue()}")
    return OK


def _csv_eigenvalues(cls) -> str:
    return ",".join(_fmt(e.real) if e.imag == 0 else f"{_fmt(e.real)}{e.imag:+.17g}j"
                    for e in cls.eigenvalues)


def _json_eigenvalues(cls) -> list[list[float]]:
    return [[e.real, e.imag] for e in cls.eigenvalues]


def cmd_classify(args) -> int:
    cfg = _resolve(args)
    p = _require_params(cfg)
    closed = classify_lambda1(p)
    generic = classify_at(LAMBDA1, p)
    other = None if cfg.init is None else classify_at(cfg.init, p)
    lines = [f"# config: {cfg.echo()}"]
    if args.format == "csv":
        lines.append("path,point,classification,eig1,eig2,eig3,eig4")
        lines.append(f"closed-form,lambda_1,{closed.classification},{_csv_eigenvalues(closed)}")
        lines.append(f"generic,lambda_1,{generic.classification},{_csv_eigenvalues(generic)}")
        if other is not None:
            pt = ";".join(_fmt(c) for c in cfg.init.as_tuple())
            lines.append(f"generic (outside analyzed scope),{pt},{other.classification},"
                         f"{_csv_eigenvalues(other)}")
    else:
        payload = {
            "closed_form": {
                "point": "lambda_1",
                "classification": closed.classification,
                "eigenvalues": _json_eigenvalues(closed),
            },
            "generic": {
                "point": "lambda_1",
                "classification": generic.classification,
                "eigenvalues": _json_eigenvalues(generic),
            },
        }
        if other is not None:
            payload["at_point"] = {
                "point": list(cfg.init.as_tuple()),
                "classification": other.classification,
                "eigenvalues": _json_eigenvalues(other),
                "note": "classification away from lambda_1 is outside the analyzed scope",
            }
        lines.append(json.dumps(payload, sort_keys=True))
    _emit(cfg, "\n".join(lines) + "\n")
    return OK


def cmd_conjugacy(args) -> int:
    cfg = _resolve(args)
    p = _require_params(cfg)
    _require_edge_regime(p)  # the 1-D reduction holds only there
    if p.beta1 * p.k1 <= 0.0:
        raise ConfigError("conjugacy needs beta1*k1 > 0")
    cm = conjugacy_map(p, root=args.root)
    f = QuadraticMap1D.from_params(p)
    sup = verify_conjugacy(p, grid_size=cfg.grid, root=args.root)
    p1, p2 = classify_1d_fixed_points(p)
    lines = [
        f"# config: {cfg.echo()}",
        f"mu={_fmt(cm.mu)}",
        f"h(x) = {_fmt(cm.slope)}*x + {_fmt(cm.intercept)}  (root choice: {cm.root_choice})",
        "f coefficients (constant, linear, quadratic): "
        + ", ".join(_fmt(c) for c in f.coefficients),
        f"conjugacy sup-norm over {cfg.grid} grid points: {_fmt(sup)}",
        f"fixed point {_fmt(p1.location)}: {p1.label} (f'={_fmt(p1.derivative)})",
        f"fixed point {_fmt(p2.location)}: {p2.label} (f'={_fmt(p2.derivative)})",
        f"mu in (1,3): {'yes' if cm.in_logistic_window else 'no'}",
    ]
    _emit(cfg, "\n".join(lines) + "\n")
    return OK if sup <= 1e-12 else DOMAIN_NEGATIVE


def cmd_scan(args) -> int:
    cfg = _resolve(args)
    report = conjecture_scan(args.conjecture, n_init=args.inits, seed=cfg.seed)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            report.to_jsonl(fh)
    else:
        report.to_jsonl(sys.stdout)
    summary = " ".join(f"{k}={v}" for k, v in sorted(report.summary.items()))
    print(f"# scan conjecture={args.conjecture} seed={cfg.seed} {summary}",
          file=sys.stderr)
    return DOMAIN_NEGATIVE if report.summary["counterexample"] else OK


def cmd_tensor_dump(args) -> int:
    cfg = _resolve(args)
    p = _require_params(cfg)
    t = build_tensor(p)
    lines = [f"# config: {cfg.echo()}", "i,j,k,value"]
    lines += [f"{i},{j},{k},{_fmt(v)}" for i, j, k, v in tensor_rows(t)]
    _emit(cfg, "\n".join(lines) + "\n")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sisi",
        description="Discrete-time SISI epidemic operator on the 3-simplex",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": cmd_validate,
        "simulate": cmd_simulate,
        "fixpoints": cmd_fixpoints,
        "classify": cmd_classify,
        "conjugacy": cmd_conjugacy,
        "scan": cmd_scan,
        "tensor-dump": cmd_tensor_dump,
    }
    for name, reads in _READS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="key=value config file; flags override")
        sub.add_argument("--out", help="output path (default stdout)")
        for key in reads:
            sub.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        sub.set_defaults(fn=commands[name])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except InadmissibleParams as exc:
        print(f"error: inadmissible rates: {exc}", file=sys.stderr)
        return BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except BrokenPipeError:
        # the reader left early (``sisi scan | head``): no traceback, and
        # what stdout still buffers goes to /dev/null at exit
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
