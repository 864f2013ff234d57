"""The benchmark's three workloads.

Each workload is a closed loop: one caller issues the next operation
when the previous one returns.  Operations come in rounds built from the
seed, and a run always ends on a round boundary, so every run holds the
same mix of operations.  Inputs are made in ``__init__`` and in
``rounds``; the program only ever sees the generated values.  An
operation calls one public entry point of teichlen, looked up when it
runs, so the traced pass sees the wrapped function.

Workload interface: ``round_len`` (operations per round), ``trace_ops``
(operations in the traced pass), ``rounds()`` yielding lists of
``(key, thunk)``, ``check(results)`` returning one bool per result, and
``info(results)`` returning informational outputs that gate nothing.
"""

from __future__ import annotations

import io
import itertools
import math
import random
from pathlib import Path

DATA = Path("demos") / "data"


def _factor_distance(x1, y1, x2, y2) -> float:
    """Half-plane distance with the factor 1/2, written out independently."""
    return math.asinh(math.hypot(x1 - x2, y1 - y2) / (2.0 * math.sqrt(y1 * y2)))


class ProductSweep:
    """Criterion-9 sweeps: product_region_discrepancy on genus 2.

    A round is one thin level: a seeded sigma with l1 <= 1e-2 and thick
    g2, g3, against tau = sigma with g1 twisted by 2^j (j = 4, 6, .., 12)
    and pinched by 10 to 1000 times.  The grid keeps the extreme shifts
    and ratios, so criterion 9's ``dist_range >= 2.0`` applies per
    round.  The 21,440-member default family is built once, in set-up.
    """

    SHIFTS = tuple(2 ** j for j in range(4, 13, 2))
    RATIOS = tuple(10.0 ** (1.0 + k / 2.0) for k in range(5))
    round_len = len(SHIFTS) * len(RATIOS)
    trace_ops = 10

    def __init__(self, root: Path, seed: int):
        import teichlen as tl
        from teichlen.files import parse_surface

        self.tl = tl
        self.rng = random.Random(seed)
        self.marking = parse_surface((root / DATA / "genus2.surf").read_text())
        self.family = tl.default_curve_family(self.marking)

    def _sigma(self):
        rng = self.rng
        lengths = {"g1": 10.0 ** rng.uniform(-3.0, -2.0),
                   "g2": rng.uniform(0.6, 2.0), "g3": rng.uniform(0.6, 2.0)}
        twists = {c: rng.uniform(-0.5, 0.5) for c in ("g1", "g2", "g3")}
        return lengths, twists

    def rounds(self):
        tl, marking, family = self.tl, self.marking, self.family
        for level in itertools.count():
            lengths, twists = self._sigma()
            sigma = tl.FNPoint(lengths, twists)
            ops = []
            for shift, ratio in itertools.product(self.SHIFTS, self.RATIOS):
                tau = tl.FNPoint({**lengths, "g1": lengths["g1"] / ratio},
                                 {**twists, "g1": twists["g1"] + shift})

                def op(sigma=sigma, tau=tau):
                    return tl.product_region_discrepancy(
                        sigma, tau, ["g1"], marking, family=family)

                ops.append(((level, sigma, tau), op))
            self.rng.shuffle(ops)
            yield ops

    def check(self, results):
        ok = []
        for (_, sigma, tau), report in results:
            factor = _factor_distance(sigma.twist("g1"), 1.0 / sigma.length("g1"),
                                      tau.twist("g1"), 1.0 / tau.length("g1"))
            values = (report.d_teich, report.d_product)
            ok.append(all(math.isfinite(v) and v >= 0.0 for v in values)
                      and report.d_product >= factor * (1.0 - 1e-9))
        # criterion-9 bounds, per complete thin level
        for level, members in self._levels(results).items():
            if len(members) < self.round_len:
                continue
            disc_range, dist_range = self._ranges([results[k][1] for k in members])
            if not (disc_range <= 0.7 and dist_range >= 2.0):
                for k in members:
                    ok[k] = False
        return ok

    @staticmethod
    def _levels(results):
        levels: dict[int, list[int]] = {}
        for k, ((level, _, _), _) in enumerate(results):
            levels.setdefault(level, []).append(k)
        return levels

    @staticmethod
    def _ranges(reports):
        disc = [r.discrepancy for r in reports]
        dist = [r.d_product for r in reports]
        return max(disc) - min(disc), max(dist) - min(dist)

    def info(self, results):
        levels = []
        for level, members in sorted(self._levels(results).items()):
            reports = [results[k][1] for k in members]
            disc_range, dist_range = self._ranges(reports)
            levels.append({
                "l1": results[members[0]][0][1].length("g1"),
                "pairs": len(members),
                "disc_range": disc_range,
                "dist_range": dist_range,
                "d_teich_zero": sum(r.d_teich == 0.0 for r in reports),
            })
        return {"thin_levels": levels}


class InstabilityLadder:
    """instability_lower_bound rungs L = 1 .. 10^4 at delta = 0.

    A round is one ladder on hyp_product_space(2) and one on
    pi_image_space(genus 2), each rung with its own seed drawn from the
    workload seed.  The search budget is 60 candidates a rung rather
    than the library default of 500: a default rung takes 1.4-2.0 s on a
    2-CPU x86_64 host, so the 100 operations a p90 needs would not fit in
    one run.  At L <= 100 a rung still tries all 40 structured witnesses.
    """

    LADDER = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    DELTA = 0.0
    BUDGET = 60
    round_len = 2 * len(LADDER)
    trace_ops = round_len

    def __init__(self, root: Path, seed: int):
        import teichlen as tl
        from teichlen.files import parse_surface

        self.tl = tl
        self.rng = random.Random(seed)
        marking = parse_surface((root / DATA / "genus2.surf").read_text())
        self.spaces = {"hyp-product:2": tl.hyp_product_space(2),
                       "pi-image:genus2": tl.pi_image_space(marking)}

    def rounds(self):
        tl = self.tl
        for ladder in itertools.count():
            ops = []
            for label, space in self.spaces.items():
                for L in self.LADDER:
                    rung_seed = self.rng.randrange(2 ** 32)

                    def op(space=space, L=L, rung_seed=rung_seed):
                        return tl.instability_lower_bound(
                            space, self.DELTA, L, budget=self.BUDGET, seed=rung_seed)

                    ops.append(((ladder, label, L), op))
            yield ops

    def check(self, results):
        return [self._check_rung(key, result) for key, result in results]

    def _check_rung(self, key, result) -> bool:
        _, label, L = key
        value, witness = result[0], result[1]
        delta = self.DELTA
        if not (math.isfinite(value) and 0.0 <= value <= (L + delta) / 2.0 + 1e-9):
            return False
        if witness is None:
            return value == 0.0
        d = self.spaces[label].distance
        if d(witness.x, witness.y) > L * (1.0 + 1e-12):
            return False
        slack = (d(witness.x, witness.z) + d(witness.z, witness.y)
                 - d(witness.x, witness.y))
        return slack < delta or slack <= 1e-12

    def info(self, results):
        import warnings

        from teichlen.errors import TeichlenError

        ladders: dict[tuple, list[float]] = {}
        for (ladder, label, _), result in results:
            ladders.setdefault((label, ladder), []).append(result[0])
        slopes: dict[str, list] = {}
        s_lower: dict[str, list] = {}
        for (label, _), values in sorted(ladders.items()):
            s_lower.setdefault(label, []).append(values)
            if len(values) != len(self.LADDER):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    fit = self.tl.growth_rate_estimate(
                        None, self.DELTA, self.LADDER, s_values=values)
                    slopes.setdefault(label, []).append(fit.slope)
                except TeichlenError:
                    slopes.setdefault(label, []).append(None)
        return {"ladder": list(self.LADDER), "budget": self.BUDGET,
                "slope": slopes, "s_lower": s_lower}


class CliBatch:
    """In-process ``teichlen.cli.main(["--format", "rows", ...])`` calls.

    One round runs every command once, in a seeded order: validate and
    collar, extremal for each curve system of genus2_curves.crv,
    distance over all pairs of genus2_*.fn, product --gamma g1 on the
    thin and twisted points, the holed-torus collar and extremal, and
    one instability ladder on supprod:2.  Twelve of the 20 commands
    build a family, so the median falls inside them.
    """

    def __init__(self, root: Path, seed: int):
        import teichlen.cli

        self.cli = teichlen.cli
        self.rng = random.Random(seed)
        data = root / DATA
        holed_curves = Path(__file__).resolve().parent / "data" / "holed_torus.crv"
        surf = str(data / "genus2.surf")
        points = sorted(data.glob("genus2_*.fn"))
        commands = [["validate", surf],
                    ["validate", str(data / "holed_torus.surf")],
                    ["collar", surf, str(data / "genus2_thin.fn")]]
        for curve in ("core1", "cross1", "snake"):
            commands.append(["extremal", surf, str(data / "genus2_core.fn"),
                             str(data / "genus2_curves.crv"), "--curve", curve])
        for a, b in itertools.combinations(points, 2):
            commands.append(["distance", surf, str(a), str(b)])
        commands.append(["product", surf, str(data / "genus2_thin.fn"),
                         str(data / "genus2_twisted.fn"), "--gamma", "g1"])
        holed = [str(data / "holed_torus.surf"), str(data / "holed_torus.fn")]
        commands.append(["collar", *holed])
        commands.append(["extremal", *holed, str(holed_curves)])
        commands.append(["--seed", str(self.rng.randrange(2 ** 31)), "instability",
                         "--space", "supprod:2", "--delta", "0",
                         "--ladder", "1,10,100,1000,10000"])
        self.commands = [["--format", "rows", *c] for c in commands]
        self.round_len = self.trace_ops = len(self.commands)

    def _run(self, argv):
        out = io.StringIO()
        try:
            code = self.cli.main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue()

    def rounds(self):
        while True:
            order = list(self.commands)
            self.rng.shuffle(order)
            yield [(tuple(argv), lambda argv=argv: self._run(argv)) for argv in order]

    def check(self, results):
        first: dict[tuple, str] = {}
        ok = []
        for argv, (code, text) in results:
            first.setdefault(argv, text)
            ok.append(code == 0 and bool(text.strip()) and text == first[argv])
        return ok

    def info(self, results):
        d_teich = {}
        for argv, (code, text) in results:
            label = " ".join([argv[2], *(Path(p).stem for p in argv[4:6])])
            if argv[2] not in ("distance", "product") or label in d_teich:
                continue
            rows = [line.split("\t") for line in text.splitlines()]
            if code == 0 and len(rows) >= 2:
                d_teich[label] = float(rows[1][0])
        return {"d_teich": d_teich}


WORKLOADS = {
    "product-sweep": ProductSweep,
    "instability-ladder": InstabilityLadder,
    "cli-batch": CliBatch,
}
