"""Command-line front end.

Commands: validate, collar, extremal, distance, product, instability.
A command exits 0 on success; a ParseError, ValidationError or
NumericDomainError is reported on stderr and exits with the error's
``exit_code`` (2, 3 or 4).  The config keys are the fields of
``RunConfig``.  Each can be set by an environment variable with prefix
``TEICHLEN_`` and most by command-line flags; flags win over the
environment, which wins over --config files, which win over defaults.
A --config file is header-less ``key = value`` lines, read by
``files.parse_sections`` with the comment and repeat rules of every
input file, so a bad value names its line.
Each command computes its result once and returns (header, rows, table
lines); ``main`` alone writes them, as tab-separated rows under a
``#`` header for ``--format rows`` and as the table lines otherwise.
``instability`` checks its whole ladder before it searches any rung.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields

from .collar import CollarParams, collar_decomposition
from .distance import (
    kerckhoff_distance_estimate,
    pair_curve_family,
    product_region_discrepancy,
)
from .errors import NumericDomainError, ParseError, ValidationError
from .extremal import lambda_surface_estimate
from .files import parse_curves, parse_fn, parse_number, parse_sections, parse_surface
from .instability import (
    euclidean_space,
    growth_rate_estimate,
    hyp_product_space,
    sup_product_space,
)
from .spaces import pi_image_space

ENV_PREFIX = "TEICHLEN_"


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one command invocation."""

    eps0: float = 0.5
    eps1: float = 0.1
    ell0: float = 10.0  # largest admissible boundary length
    seed: int = 0
    budget: int = 400
    format: str = "table"

    def __post_init__(self):
        if not self.ell0 > 0:
            raise ValidationError("ell0 must be positive")
        if self.budget < 1:
            raise ValidationError("budget must be positive")
        if self.format not in ("table", "rows"):
            raise ValidationError(f"format must be 'table' or 'rows', got {self.format!r}")
        self.params()  # enforces the eps ordering

    def params(self) -> CollarParams:
        return CollarParams(self.eps0, self.eps1)


_KEYS = {f.name: type(f.default) for f in fields(RunConfig)}


def _number(kind, text: str, what: str):
    try:
        return parse_number(kind, text, None, what)
    except ParseError as exc:  # a bad argument is invalid input, not unparsable text
        raise ValidationError(str(exc)) from None


def _coerce(key: str, value: str, line: int | None = None):
    if key not in _KEYS:
        raise ValidationError(f"unknown config key {key!r}")
    return parse_number(_KEYS[key], value, line, key)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        ((_, _, _, rows),) = parse_sections(_read(path), {None: False})
        values = {key: _coerce(key, value, line_no) for line_no, key, value in rows}
    for key in _KEYS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = _coerce(key, env)
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return RunConfig(**values)


def _fmt(value: float, config: RunConfig) -> str:
    digits = 17 if config.format == "rows" else 6
    return f"{value:.{digits}g}"


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _load(config: RunConfig, surface_path: str, *fn_paths: str) -> tuple:
    """The marking, then one point per fn file, each with boundary lengths <= ell0."""
    marking = parse_surface(_read(surface_path))
    points = [parse_fn(_read(path), marking) for path in fn_paths]
    for point in points:
        for name in marking.decomposition.boundary_names():
            if point.length(name) > config.ell0:
                raise ValidationError(
                    f"boundary {name} has length {point.length(name)} > ell0 = {config.ell0}"
                )
    return (marking, *points)


def cmd_validate(args, config: RunConfig) -> tuple:
    (marking,) = _load(config, args.surface)
    n = len(marking.curves)
    p = len(marking.decomposition.pants)
    chi = marking.spec.euler_characteristic
    curve_word = "curve" if n == 1 else "curves"
    return (["curves", "pants", "chi"], [[str(n), str(p), str(chi)]],
            [f"{n} {curve_word}, {p} pants, chi={chi}"])


def cmd_collar(args, config: RunConfig) -> tuple:
    marking, point = _load(config, args.surface, args.fn)
    dec = collar_decomposition(marking, point, config.params())
    rows = []
    lines = [f"thin annuli: {len(dec.thin)}, thick components: {len(dec.thick)}"]
    for annulus in dec.thin:
        core = _fmt(annulus.core_length, config)
        modulus = _fmt(annulus.modulus, config)
        rows.append(["thin", annulus.curve, core, modulus, str(int(annulus.peripheral))])
        lines.append(f"  thin {annulus.curve}: core length {core}, modulus {modulus}"
                     + (" (peripheral)" if annulus.peripheral else ""))
    for comp in dec.thick:
        rows.append(["thick", comp.component_id, "-", "-", "-"])
        lines.append(f"  {comp.component_id}")
    return ["kind", "id", "core_length", "modulus", "peripheral"], rows, lines


def cmd_extremal(args, config: RunConfig) -> tuple:
    marking, point = _load(config, args.surface, args.fn)
    systems = parse_curves(_read(args.curves), marking)
    if args.curve is not None:
        if args.curve not in systems:
            raise ValidationError(f"no curve {args.curve!r} in {args.curves}")
        systems = {args.curve: systems[args.curve]}
    rows, lines = [], []
    for label in sorted(systems):
        result = lambda_surface_estimate(systems[label], point, marking, config.params())
        for component in result.components:
            value = _fmt(component.value, config)
            rows.append([label, component.component, component.kind, value])
            lines.append(f"  {label} {component.kind:7s} {component.component}: {value}")
        total = _fmt(result.value, config)
        rows.append([label, "TOTAL", "max", total])
        lines.append(f"{label}: extremal length estimate {total}")
    return ["curve", "component", "kind", "value"], rows, lines


def cmd_distance(args, config: RunConfig) -> tuple:
    marking, point1, point2 = _load(config, args.surface, args.fn1, args.fn2)
    value = _fmt(kerckhoff_distance_estimate(
        point1, point2, pair_curve_family(marking, point1, point2), marking,
        config.params()), config)
    return ["d_teich"], [[value]], [f"d_teich = {value}"]


def cmd_product(args, config: RunConfig) -> tuple:
    marking, point1, point2 = _load(config, args.surface, args.fn1, args.fn2)
    gamma = [token for token in args.gamma.split(",") if token]
    if not gamma:
        raise ValidationError("--gamma needs at least one curve name")
    report = product_region_discrepancy(point1, point2, gamma, marking, config.params())
    names = ["d_teich", "d_product", "discrepancy"]
    values = [_fmt(getattr(report, name), config) for name in names]
    lines = [f"{name} = {value}" for name, value in zip(names, values)]
    if not report.thin_ok:
        lines.append("warning: pinched curves are not thin at both points")
    return names + ["thin_ok"], [values + [str(int(report.thin_ok))]], lines


# --space kind -> the space built from the text after the colon
_SPACES = {
    "euclidean": lambda arg: euclidean_space(_number(int, arg, "euclidean dimension")),
    "supprod": lambda arg: sup_product_space(_number(int, arg, "supprod dimension")),
    "hyp-product": lambda arg: hyp_product_space(
        _number(int, arg, "hyp-product factor count")),
    "pi-image": lambda arg: pi_image_space(parse_surface(_read(arg))),
}


def _make_space(spec: str):
    kind, _, arg = spec.partition(":")
    if kind not in _SPACES:
        raise ValidationError(f"unknown space spec {spec!r}")
    return _SPACES[kind](arg)


def cmd_instability(args, config: RunConfig) -> tuple:
    space = _make_space(args.space)
    ladder = [_number(float, token, "--ladder value")
              for token in args.ladder.split(",") if token]
    fit = growth_rate_estimate(space, args.delta, ladder, budget=config.budget,
                               seed=config.seed)
    s_lower = dict(fit.points)  # a rung whose search found nothing is not fitted
    rows = [[_fmt(args.delta, config), _fmt(L, config), _fmt(s_lower.get(L, 0.0), config),
             _fmt(fit.slope, config)] for L in ladder]
    return (["delta", "L", "s_lower", "slope"], rows,
            ["delta={} L={} s_lower={} slope={}".format(*row) for row in rows])


# name, help, positional arguments and handler of each subcommand
_COMMANDS = (
    ("validate", "check a surface file", ("surface",), cmd_validate),
    ("collar", "collar decomposition of a point", ("surface", "fn"), cmd_collar),
    ("extremal", "extremal length estimates", ("surface", "fn", "curves"), cmd_extremal),
    ("distance", "distance estimate between two points", ("surface", "fn1", "fn2"),
     cmd_distance),
    ("product", "product-model comparison", ("surface", "fn1", "fn2"), cmd_product),
    ("instability", "instability ladder for a model space", (), cmd_instability),
)


@functools.cache  # built once per process: building it cost more than a validate run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teichlen",
        description="Hyperbolic surface geometry from length/twist coordinates.",
    )
    parser.add_argument("--config", help="config file of 'key = value' lines")
    parser.add_argument("--eps0", type=float, help="collar boundary length")
    parser.add_argument("--eps1", type=float, help="thin threshold")
    parser.add_argument("--format", choices=("table", "rows"))
    parser.add_argument("--seed", type=int, help="search seed")
    parser.add_argument("--budget", type=int, help="search budget")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, positionals, handler in _COMMANDS:
        commands[name] = sub.add_parser(name, help=help_text)
        for positional in positionals:
            commands[name].add_argument(positional)
        commands[name].set_defaults(func=handler)
    commands["extremal"].add_argument("--curve", help="restrict to one curve section")
    commands["product"].add_argument("--gamma", required=True,
                                     help="comma-separated pinched curves")
    instability = commands["instability"]
    instability.add_argument("--space", required=True,
                             help="euclidean:N | supprod:N | hyp-product:K | pi-image:<surface>")
    instability.add_argument("--delta", type=float, required=True)
    instability.add_argument("--ladder", required=True,
                             help="comma-separated L values (>= 5)")
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, {key: getattr(args, key, None) for key in _KEYS})
        header, rows, table = args.func(args, config)
    except (ParseError, ValidationError, NumericDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if config.format == "rows":
        table = ["#" + "\t".join(header), *("\t".join(row) for row in rows)]
    out.write("".join(line + "\n" for line in table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
