"""Command-line front end.

Commands: validate, collar, extremal, distance, product, instability.
A command exits 0 on success; a ParseError, ValidationError or
NumericDomainError is reported on stderr and exits with the error's
``exit_code`` (2, 3 or 4).  The config keys are the fields of
``RunConfig``.  Each can be set by an environment variable with prefix
``TEICHLEN_`` and most by command-line flags; flags win over the
environment, which wins over --config files, which win over defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

from .collar import CollarParams, collar_decomposition
from .distance import (
    CurveFamily,
    default_curve_family,
    kerckhoff_distance_estimate,
    product_region_discrepancy,
)
from .errors import NumericDomainError, ParseError, ValidationError
from .extremal import lambda_surface_estimate
from .files import parse_curves, parse_fn, parse_surface
from .instability import (
    euclidean_space,
    growth_rate_estimate,
    hyp_product_space,
    instability_lower_bound,
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
    family_i_max: int = 2
    family_b: int = 8
    seed: int = 0
    budget: int = 400
    format: str = "table"

    def __post_init__(self):
        if not self.ell0 > 0:
            raise ValidationError("ell0 must be positive")
        if self.family_i_max < 1 or self.family_b < 0:
            raise ValidationError("family bounds must be positive")
        if self.budget < 1:
            raise ValidationError("budget must be positive")
        if self.format not in ("table", "rows"):
            raise ValidationError(f"format must be 'table' or 'rows', got {self.format!r}")
        self.params()  # enforces the eps ordering

    def params(self) -> CollarParams:
        return CollarParams(self.eps0, self.eps1)


_KEYS = {f.name: type(f.default) for f in fields(RunConfig)}


def _number(kind, text: str, what: str, error=ValidationError):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise error(f"{what} must be {noun}, got {text!r}") from None


def _coerce(key: str, value: str):
    if key not in _KEYS:
        raise ValidationError(f"unknown config key {key!r}")
    return _number(_KEYS[key], value, key, ParseError)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        for line_no, raw in enumerate(_read(path).splitlines(), start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("config lines are 'key = value'", line_no)
            key, _, value = line.partition("=")
            values[key.strip()] = _coerce(key.strip(), value.strip())
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


def _emit_rows(out, header: list[str], rows: list[list[str]]):
    out.write("#" + "\t".join(header) + "\n")
    for row in rows:
        out.write("\t".join(row) + "\n")


def cmd_validate(args, config: RunConfig, out) -> int:
    (marking,) = _load(config, args.surface)
    spec = marking.spec
    n = len(marking.curves)
    p = len(marking.decomposition.pants)
    if config.format == "rows":
        _emit_rows(out, ["curves", "pants", "chi"],
                   [[str(n), str(p), str(spec.euler_characteristic)]])
    else:
        curve_word = "curve" if n == 1 else "curves"
        out.write(f"{n} {curve_word}, {p} pants, chi={spec.euler_characteristic}\n")
    return 0


def cmd_collar(args, config: RunConfig, out) -> int:
    marking, point = _load(config, args.surface, args.fn)
    dec = collar_decomposition(marking, point, config.params())
    rows = []
    for annulus in dec.thin:
        rows.append([
            "thin", annulus.curve, _fmt(annulus.core_length, config),
            _fmt(annulus.modulus, config), str(int(annulus.peripheral)),
        ])
    for comp in dec.thick:
        rows.append(["thick", comp.component_id, "-", "-", "-"])
    if config.format == "rows":
        _emit_rows(out, ["kind", "id", "core_length", "modulus", "peripheral"], rows)
    else:
        out.write(f"thin annuli: {len(dec.thin)}, thick components: {len(dec.thick)}\n")
        for row in rows:
            if row[0] == "thin":
                out.write(
                    f"  thin {row[1]}: core length {row[2]}, modulus {row[3]}"
                    + (" (peripheral)\n" if row[4] == "1" else "\n")
                )
            else:
                out.write(f"  {row[1]}\n")
    return 0


def cmd_extremal(args, config: RunConfig, out) -> int:
    marking, point = _load(config, args.surface, args.fn)
    systems = parse_curves(_read(args.curves), marking)
    if args.curve is not None:
        if args.curve not in systems:
            raise ValidationError(f"no curve {args.curve!r} in {args.curves}")
        systems = {args.curve: systems[args.curve]}
    rows = []
    for label in sorted(systems):
        result = lambda_surface_estimate(systems[label], point, marking, config.params())
        for component in result.components:
            rows.append([label, component.component, component.kind,
                         _fmt(component.value, config)])
        rows.append([label, "TOTAL", "max", _fmt(result.value, config)])
    if config.format == "rows":
        _emit_rows(out, ["curve", "component", "kind", "value"], rows)
    else:
        for row in rows:
            if row[1] == "TOTAL":
                out.write(f"{row[0]}: extremal length estimate {row[3]}\n")
            else:
                out.write(f"  {row[0]} {row[2]:7s} {row[1]}: {row[3]}\n")
    return 0


def _family(marking, config: RunConfig) -> CurveFamily:
    return default_curve_family(marking, config.family_i_max, config.family_b)


def cmd_distance(args, config: RunConfig, out) -> int:
    marking, point1, point2 = _load(config, args.surface, args.fn1, args.fn2)
    value = kerckhoff_distance_estimate(
        point1, point2, _family(marking, config), marking, config.params()
    )
    if config.format == "rows":
        _emit_rows(out, ["d_teich"], [[_fmt(value, config)]])
    else:
        out.write(f"d_teich = {_fmt(value, config)}\n")
    return 0


def cmd_product(args, config: RunConfig, out) -> int:
    marking, point1, point2 = _load(config, args.surface, args.fn1, args.fn2)
    gamma = [token for token in args.gamma.split(",") if token]
    if not gamma:
        raise ValidationError("--gamma needs at least one curve name")
    report = product_region_discrepancy(
        point1, point2, gamma, marking, config.params(),
        family=_family(marking, config),
    )
    if config.format == "rows":
        _emit_rows(
            out,
            ["d_teich", "d_product", "discrepancy", "thin_ok"],
            [[_fmt(report.d_teich, config), _fmt(report.d_product, config),
              _fmt(report.discrepancy, config), str(int(report.thin_ok))]],
        )
    else:
        out.write(f"d_teich = {_fmt(report.d_teich, config)}\n")
        out.write(f"d_product = {_fmt(report.d_product, config)}\n")
        out.write(f"discrepancy = {_fmt(report.discrepancy, config)}\n")
        if not report.thin_ok:
            out.write("warning: pinched curves are not thin at both points\n")
    return 0


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


def cmd_instability(args, config: RunConfig, out) -> int:
    space = _make_space(args.space)
    ladder = [_number(float, token, "--ladder value")
              for token in args.ladder.split(",") if token]
    results = [
        instability_lower_bound(space, args.delta, L, budget=config.budget,
                                seed=config.seed)
        for L in ladder
    ]
    fit = growth_rate_estimate(
        space, args.delta, ladder, s_values=[value for value, _ in results]
    )
    rows = [
        [_fmt(args.delta, config), _fmt(L, config), _fmt(value, config),
         _fmt(fit.slope, config)]
        for L, (value, _) in zip(ladder, results)
    ]
    if config.format == "rows":
        _emit_rows(out, ["delta", "L", "s_lower", "slope"], rows)
    else:
        for row in rows:
            out.write(f"delta={row[0]} L={row[1]} s_lower={row[2]} slope={row[3]}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teichlen",
        description="Hyperbolic surface geometry from length/twist coordinates.",
    )
    parser.add_argument("--config", help="config file of 'key = value' lines")
    parser.add_argument("--eps0", type=float, help="collar boundary length")
    parser.add_argument("--eps1", type=float, help="thin threshold")
    parser.add_argument("--family-b", type=int, dest="family_b",
                        help="twist-offset bound of the default curve family")
    parser.add_argument("--format", choices=("table", "rows"))
    parser.add_argument("--seed", type=int, help="search seed")
    parser.add_argument("--budget", type=int, help="search budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a surface file")
    p.add_argument("surface")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("collar", help="collar decomposition of a point")
    p.add_argument("surface")
    p.add_argument("fn")
    p.set_defaults(func=cmd_collar)

    p = sub.add_parser("extremal", help="extremal length estimates")
    p.add_argument("surface")
    p.add_argument("fn")
    p.add_argument("curves")
    p.add_argument("--curve", help="restrict to one curve section")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("distance", help="distance estimate between two points")
    p.add_argument("surface")
    p.add_argument("fn1")
    p.add_argument("fn2")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("product", help="product-model comparison")
    p.add_argument("surface")
    p.add_argument("fn1")
    p.add_argument("fn2")
    p.add_argument("--gamma", required=True, help="comma-separated pinched curves")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("instability", help="instability ladder for a model space")
    p.add_argument("--space", required=True,
                   help="euclidean:N | supprod:N | hyp-product:K | pi-image:<surface>")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ladder", required=True, help="comma-separated L values (>= 5)")
    p.set_defaults(func=cmd_instability)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, {key: getattr(args, key, None) for key in _KEYS})
        return args.func(args, config, out)
    except (ParseError, ValidationError, NumericDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
