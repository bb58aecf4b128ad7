"""Command-line front end.

Subcommands: validate, simulate, fixpoints, classify, conjugacy, scan,
tensor-dump.  Configuration is a flat key=value file, then --params, then
flags; ``_READS`` says what each subcommand reads, and any other key is an
error.  Every report echoes the parsed configuration in canonical form,
so identical configuration and seed produce byte-identical output.

Exit codes: 0 ok, 1 negative domain result (inadmissible rates, failed
identity, counterexample found), 2 malformed input, a ``--config`` file that
cannot be read or an ``--out`` path that cannot be written, 3
non-convergence, 141 the reader of stdout left early.

Figure presets 1-4 are trajectory runs converging to the cataloged limits;
presets 5 and 6 emit the equilibrium balance curves (CSV columns x,f,g)
in the one-crossing and no-crossing regimes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from dataclasses import dataclass

from sisi.model import (
    _FIELDS as _PARAM_KEYS,
    InadmissibleParams,
    ModelParams,
    SimplexPoint,
    iterate,
    validate_params,
)
from sisi.tensor import build_tensor, tensor_rows
from sisi.fixpoints import fixed_point_set
from sisi.stability import LAMBDA1, classify_at, classify_lambda1
from sisi.conjugacy import (
    QuadraticMap1D,
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    return _parse_pairs(line for line in lines if line)


def _point(text: str) -> SimplexPoint:
    coords = [float(t) for t in text.split(",")]
    if len(coords) != 4:
        raise ValueError("needs four comma-separated coordinates")
    return SimplexPoint(*coords)


# Keys that a config file, --params or the flag of the same name may set,
# and how each value is read; a value it cannot read is named by its key.
_PAIRS = {**dict.fromkeys(_PARAM_KEYS, float), "init": _point, "max_iter": int,
          "tol_step": float, "tol_fix": float, "grid": int, "seed": int}

# argparse settings of every flag but --config and --out, by key.
_FLAGS = {
    "params": dict(nargs="*", metavar="KEY=VALUE",
                   help="rates: b, alpha, beta1, beta2, k1, k2 (missing keys default to 0)"),
    "figure": dict(type=int, choices=sorted(_FIGURES), help="preset; fixes the rates and init"),
    "init": dict(help="initial point as x,u,y,v"),
    "max_iter": dict(),
    "tol_step": dict(),
    "tol_fix": dict(),
    "grid": dict(help="conjugacy grid points (default 10000)"),
    "seed": dict(help="rng seed (default 0)"),
    "format": dict(choices=("json", "csv"), default="json"),
    "root": dict(choices=("one", "interior"), default="one"),
    "conjecture": dict(type=int, choices=(1, 2), required=True),
    "inits": dict(type=int, default=5, help="initial points per cell"),
}

# What each subcommand reads besides --config and --out: these flags, and
# those of these keys that are in _PAIRS from a config file or --params,
# where "params" stands for the six rates, which are then required.  Any
# other key is an error.
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
    ``init`` beside ``--figure``, whose preset fixes both, an ``--out``
    path that cannot be opened for writing and, for a subcommand that
    reads the rates, no rates.
    """
    opts = vars(args)
    reads = _READS[args.command]
    needs_rates = "params" in reads
    pairs = _read_config_file(args.config) if args.config else {}
    pairs.update(_parse_pairs(opts.get("params") or ()))
    pairs.update((k, v) for k, v in opts.items() if k in _PAIRS and v is not None)
    readable = (*_PARAM_KEYS, *reads) if needs_rates else reads
    unread = [k for k in pairs if k not in _PAIRS or k not in readable]
    if unread:
        raise ConfigError(f"{args.command} does not read key(s): {', '.join(unread)}")
    figure = opts.get("figure")
    preset = [k for k in pairs if k in _PARAM_KEYS or k == "init"]
    if figure is not None and preset:
        raise ConfigError(f"--figure fixes the rates and init; drop {', '.join(preset)}")

    values = {}
    for k, v in pairs.items():
        try:
            values[k] = _PAIRS[k](v)
        except ValueError as exc:
            raise ConfigError(f"{k}: {exc}") from None
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
    if needs_rates and cfg.params is None:
        raise ConfigError("no rates given; use --params or --figure")
    return cfg


def _check_writable(path: str) -> None:
    """Raise ConfigError unless ``path`` opens for writing; the file is
    left as it was, and is not made until the report is written.  A named
    pipe is not opened: closing it would end the stream for its reader."""
    existed = os.path.lexists(path)
    try:
        if existed and stat.S_ISFIFO(os.stat(path).st_mode):
            return
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _emit(cfg: RunConfig, report) -> None:
    """Write ``report``, the text or a function that writes it to a file,
    to ``--out`` or stdout."""
    write = report if callable(report) else lambda fh: fh.write(report)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _text(cfg: RunConfig, lines) -> str:
    """The echoed configuration, then ``lines``, one line each."""
    return "\n".join([f"# config: {cfg.echo()}", *lines]) + "\n"


def cmd_validate(cfg: RunConfig, args) -> int:
    report = validate_params(cfg.params)
    if report.ok:
        code, lines = OK, ["admissible: the operator maps the simplex into itself"]
    else:
        code, lines = DOMAIN_NEGATIVE, ["inadmissible:",
                                        *(f"  {v}" for v in report.violations)]
    _emit(cfg, _text(cfg, lines))
    return code


def _curves(p: ModelParams) -> list[str]:
    cur = equilibrium_curves(p)
    return [
        f"# value_at_zero: {_fmt(cur.value_at_zero)}",
        f"# asymptote: {_fmt(cur.asymptote)}",
        f"# slope_linear: {_fmt(cur.slope_linear)}",
        f"# slope_saturating_at_zero: {_fmt(cur.slope_saturating_at_zero)}",
        f"# sign_changes: {cur.sign_changes}",
        "# crossings: " + (",".join(_fmt(c) for c in cur.crossings) or "none"),
        "x,f,g",
        *(f"{_fmt(xv)},{_fmt(fv)},{_fmt(gv)}"
          for xv, fv, gv in zip(cur.xs, cur.linear, cur.saturating)),
    ]


def cmd_simulate(cfg: RunConfig, args) -> int:
    p = cfg.params
    if cfg.kind == "curves":
        _emit(cfg, _text(cfg, _curves(p)))
        return OK
    if cfg.init is None:
        raise ConfigError("no initial point given; use --init or --figure")
    pred = predicted_limit(cfg.init, p)
    report = detect_limit(cfg.init, p, max_iter=cfg.max_iter,
                          tol_step=cfg.tol_step, tol_fix=cfg.tol_fix,
                          predicted=pred)
    traj = iterate(cfg.init, p, report.iterations)
    lines = ["n,x,u,y,v"]
    for n, row in enumerate(traj.states.tolist()):
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
    _emit(cfg, _text(cfg, lines))
    return OK if report.converged else NO_CONVERGENCE


def cmd_fixpoints(cfg: RunConfig, args) -> int:
    table = io.StringIO()  # csv quotes a family description with commas
    rows = csv.writer(table, lineterminator="\n")
    rows.writerow(["label", "x", "u", "y", "v", "residual", "stability", "family"])
    for fp in fixed_point_set(cfg.params):
        coords = [""] * 4 if fp.point is None else [_fmt(c) for c in fp.point]
        rows.writerow([fp.label, *coords, _fmt(fp.residual), fp.stability or "",
                       fp.family or ""])
    _emit(cfg, f"# config: {cfg.echo()}\n{table.getvalue()}")
    return OK


def _csv_eigenvalues(cls) -> str:
    return ",".join(_fmt(e.real) if e.imag == 0 else f"{_fmt(e.real)}{e.imag:+.17g}j"
                    for e in cls.eigenvalues)


def cmd_classify(cfg: RunConfig, args) -> int:
    p = cfg.params
    # (CSV path, JSON key, point or None for lambda_1, classification)
    rows = [("closed-form", "closed_form", None, classify_lambda1(p)),
            ("generic", "generic", None, classify_at(LAMBDA1, p))]
    if cfg.init is not None:
        rows.append(("generic (outside analyzed scope)", "at_point", cfg.init.as_tuple(),
                     classify_at(cfg.init, p)))
    if args.format == "csv":
        lines = ["path,point,classification,eig1,eig2,eig3,eig4"]
        lines += [f"{path},{'lambda_1' if pt is None else ';'.join(map(_fmt, pt))},"
                  f"{cls.classification},{_csv_eigenvalues(cls)}" for path, _, pt, cls in rows]
    else:
        payload = {key: {"point": "lambda_1" if pt is None else list(pt),
                         "classification": cls.classification,
                         "eigenvalues": [[e.real, e.imag] for e in cls.eigenvalues]}
                   for _, key, pt, cls in rows}
        if cfg.init is not None:
            payload["at_point"]["note"] = ("classification away from lambda_1 is outside"
                                           " the analyzed scope")
        lines = [json.dumps(payload, sort_keys=True)]
    _emit(cfg, _text(cfg, lines))
    return OK


def cmd_conjugacy(cfg: RunConfig, args) -> int:
    p = cfg.params
    cm = conjugacy_map(p, root=args.root)  # checks the regime first
    f = QuadraticMap1D.from_params(p)
    sup = verify_conjugacy(p, grid_size=cfg.grid, root=args.root)
    p1, p2 = classify_1d_fixed_points(p)
    _emit(cfg, _text(cfg, [
        f"mu={_fmt(cm.mu)}",
        f"h(x) = {_fmt(cm.slope)}*x + {_fmt(cm.intercept)}  (root choice: {cm.root_choice})",
        "f coefficients (constant, linear, quadratic): "
        + ", ".join(_fmt(c) for c in f.coefficients),
        f"conjugacy sup-norm over {cfg.grid} grid points: {_fmt(sup)}",
        f"fixed point {_fmt(p1.location)}: {p1.label} (f'={_fmt(p1.derivative)})",
        f"fixed point {_fmt(p2.location)}: {p2.label} (f'={_fmt(p2.derivative)})",
        f"mu in (1,3): {'yes' if cm.in_logistic_window else 'no'}",
    ]))
    return OK if sup <= 1e-12 else DOMAIN_NEGATIVE


def cmd_scan(cfg: RunConfig, args) -> int:
    report = conjecture_scan(args.conjecture, n_init=args.inits, seed=cfg.seed)
    _emit(cfg, report.to_jsonl)
    summary = " ".join(f"{k}={v}" for k, v in sorted(report.summary.items()))
    print(f"# scan conjecture={args.conjecture} seed={cfg.seed} {summary}",
          file=sys.stderr)
    return DOMAIN_NEGATIVE if report.summary["counterexample"] else OK


def cmd_tensor_dump(cfg: RunConfig, args) -> int:
    rows = tensor_rows(build_tensor(cfg.params))
    _emit(cfg, _text(cfg, ["i,j,k,value", *(f"{i},{j},{k},{_fmt(v)}" for i, j, k, v in rows)]))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sisi",
        description="Discrete-time SISI epidemic operator on the 3-simplex",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, reads in _READS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="key=value config file; flags override")
        sub.add_argument("--out", help="output path (default stdout)")
        for key in reads:
            sub.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        # looked up now, so a wrapper set on the module attribute is called
        sub.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        code = args.fn(_resolve(args), args)
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
