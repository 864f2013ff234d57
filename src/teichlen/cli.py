"""Command-line front end.

Commands: validate, collar, extremal, distance, product, instability.
A command exits 0 on success; a ParseError, ValidationError or
NumericDomainError is reported on stderr and exits with the error's
``exit_code`` (2, 3 or 4).  The run settings are the five flags
``--eps0``, ``--eps1``, ``--seed``, ``--budget`` and ``--format``, with
their defaults in the parser; nothing else sets them.
Each command computes its result once and returns (header, rows, table
lines); ``main`` alone writes them, as tab-separated rows under a
``#`` header for ``--format rows`` and as the table lines otherwise.
``instability`` checks its whole ladder before it searches any rung.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .collar import CollarParams, collar_decomposition
from .distance import (
    kerckhoff_distance_estimate,
    pair_curve_family,
    product_region_discrepancy,
)
from .errors import NumericDomainError, ParseError, ValidationError, check_count
from .extremal import lambda_surface_estimate
from .files import parse_curves, parse_fn, parse_number, parse_surface
from .instability import (
    euclidean_space,
    growth_rate_estimate,
    hyp_product_space,
    sup_product_space,
)
from .spaces import pi_image_space

_ELL0 = 10.0  # largest admissible boundary length


def _number(kind, text: str, what: str):
    try:
        return parse_number(kind, text, None, what)
    except ParseError as exc:  # a bad argument is invalid input, not unparsable text
        raise ValidationError(str(exc)) from None


def _fmt(value: float, args) -> str:
    digits = 17 if args.format == "rows" else 6
    return f"{value:.{digits}g}"


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _load(surface_path: str, *fn_paths: str) -> tuple:
    """The marking, then one point per fn file, each with boundary lengths <= ell0."""
    marking = parse_surface(_read(surface_path))
    points = [parse_fn(_read(path), marking) for path in fn_paths]
    for point in points:
        for name in marking.decomposition.boundary_names():
            if point.length(name) > _ELL0:
                raise ValidationError(
                    f"boundary {name} has length {point.length(name)} > ell0 = {_ELL0}"
                )
    return (marking, *points)


def cmd_validate(args, params: CollarParams) -> tuple:
    (marking,) = _load(args.surface)
    n = len(marking.curves)
    p = len(marking.decomposition.pants)
    chi = marking.spec.euler_characteristic
    curve_word = "curve" if n == 1 else "curves"
    return (["curves", "pants", "chi"], [[str(n), str(p), str(chi)]],
            [f"{n} {curve_word}, {p} pants, chi={chi}"])


def cmd_collar(args, params: CollarParams) -> tuple:
    marking, point = _load(args.surface, args.fn)
    dec = collar_decomposition(marking, point, params)
    rows = []
    lines = [f"thin annuli: {len(dec.thin)}, thick components: {len(dec.thick)}"]
    for annulus in dec.thin:
        core = _fmt(annulus.core_length, args)
        modulus = _fmt(annulus.modulus, args)
        rows.append(["thin", annulus.curve, core, modulus, str(int(annulus.peripheral))])
        lines.append(f"  thin {annulus.curve}: core length {core}, modulus {modulus}"
                     + (" (peripheral)" if annulus.peripheral else ""))
    for comp in dec.thick:
        rows.append(["thick", comp.component_id, "-", "-", "-"])
        lines.append(f"  {comp.component_id}")
    return ["kind", "id", "core_length", "modulus", "peripheral"], rows, lines


def cmd_extremal(args, params: CollarParams) -> tuple:
    marking, point = _load(args.surface, args.fn)
    systems = parse_curves(_read(args.curves), marking)
    if args.curve is not None:
        if args.curve not in systems:
            raise ValidationError(f"no curve {args.curve!r} in {args.curves}")
        systems = {args.curve: systems[args.curve]}
    rows, lines = [], []
    for label in sorted(systems):
        result = lambda_surface_estimate(systems[label], point, marking, params)
        for component in result.components:
            value = _fmt(component.value, args)
            rows.append([label, component.component, component.kind, value])
            lines.append(f"  {label} {component.kind:7s} {component.component}: {value}")
        total = _fmt(result.value, args)
        rows.append([label, "TOTAL", "max", total])
        lines.append(f"{label}: extremal length estimate {total}")
    return ["curve", "component", "kind", "value"], rows, lines


def cmd_distance(args, params: CollarParams) -> tuple:
    marking, point1, point2 = _load(args.surface, args.fn1, args.fn2)
    value = _fmt(kerckhoff_distance_estimate(
        point1, point2, pair_curve_family(marking, point1, point2), marking,
        params), args)
    return ["d_teich"], [[value]], [f"d_teich = {value}"]


def cmd_product(args, params: CollarParams) -> tuple:
    marking, point1, point2 = _load(args.surface, args.fn1, args.fn2)
    gamma = [token for token in args.gamma.split(",") if token]
    if not gamma:
        raise ValidationError("--gamma needs at least one curve name")
    report = product_region_discrepancy(point1, point2, gamma, marking, params)
    names = ["d_teich", "d_product", "discrepancy"]
    values = [_fmt(getattr(report, name), args) for name in names]
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


def cmd_instability(args, params: CollarParams) -> tuple:
    space = _make_space(args.space)
    ladder = [_number(float, token, "--ladder value")
              for token in args.ladder.split(",") if token]
    fit = growth_rate_estimate(space, args.delta, ladder, budget=args.budget,
                               seed=args.seed)
    s_lower = dict(fit.points)  # a rung whose search found nothing is not fitted
    rows = [[_fmt(args.delta, args), _fmt(L, args), _fmt(s_lower.get(L, 0.0), args),
             _fmt(fit.slope, args)] for L in ladder]
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
    parser.add_argument("--eps0", type=float, default=0.5, help="collar boundary length")
    parser.add_argument("--eps1", type=float, default=0.1, help="thin threshold")
    parser.add_argument("--format", choices=("table", "rows"), default="table")
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    parser.add_argument("--budget", type=int, default=400, help="search budget")
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
        check_count(args.budget, "budget", 1)
        header, rows, table = args.func(args, CollarParams(args.eps0, args.eps1))
    except (ParseError, ValidationError, NumericDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.format == "rows":
        table = ["#" + "\t".join(header), *("\t".join(row) for row in rows)]
    out.write("".join(line + "\n" for line in table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
