"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them).  Exact-oracle checks carry their stated tolerances; the
surface-level checks are property based, since only the torus, annulus,
and hexagon admit exact desk-scale values.
"""

import functools
import io
import math
import time

import numpy as np

import teichlen as tl
from teichlen.cli import main as cli_main

from conftest import genus2_curve, genus2_point, make_genus2_marking
from test_pants import pants_oracle

GENUS2 = make_genus2_marking()


def criterion(number, title):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL: {title}")
                raise
            print(f"criterion {number:2d} PASS: {title}")

        return wrapper

    return decorate


def random_uh_point(rng):
    return tl.UHPoint(rng.uniform(-2, 2), rng.uniform(0.2, 5))


@criterion(1, "torus exactness: distance = half log of the ratio sup")
def test_torus_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        z1, z2 = random_uh_point(rng), random_uh_point(rng)
        gap = abs(
            tl.hyp_distance(z1, z2) - 0.5 * math.log(tl.k_ratio_sup(z1, z2))
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, worst
    assert elapsed < 1.0, elapsed


@criterion(2, "torus family estimates converge from below")
def test_torus_family_convergence():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    pairs = []
    while len(pairs) < 200:
        z1, z2 = random_uh_point(rng), random_uh_point(rng)
        if tl.hyp_distance(z1, z2) <= 1.0:
            pairs.append((z1, z2))
    close = 0
    for z1, z2 in pairs:
        exact = tl.hyp_distance(z1, z2)
        previous = 0.0
        for n in (1, 2, 5, 10, 20, 50):
            value = tl.torus_family_estimate(z1, z2, n)
            assert value >= previous - 1e-15  # nondecreasing in the bound
            assert value <= exact + 1e-12  # never exceeds the exact distance
            previous = value
        if exact - previous <= 0.02:
            close += 1
    elapsed = time.perf_counter() - start
    assert close >= 0.95 * len(pairs), close
    assert elapsed < 10.0, elapsed


@criterion(3, "torus product inequality against crossing determinants")
def test_torus_product_inequality():
    rng = np.random.default_rng(103)
    pairs = [
        (u, v)
        for u in range(-10, 11)
        for v in range(-10, 11)
        if math.gcd(abs(u), abs(v)) == 1
    ]
    u = np.array([p[0] for p in pairs], dtype=float)
    v = np.array([p[1] for p in pairs], dtype=float)
    worst = 0.0
    for _ in range(20):
        lat = tl.TorusLattice(1.0, complex(rng.uniform(-2, 2), rng.uniform(0.3, 3)))
        lam = ((u + v * lat.beta.real) ** 2 + (v * lat.beta.imag) ** 2) / lat.area
        dets = np.outer(u, v) - np.outer(v, u)
        slack = np.outer(lam, lam) - dets ** 2
        worst = min(worst, float(slack.min()))
    assert worst >= -1e-12, worst
    # equality is achieved on the square torus by the two core classes
    square = tl.TorusLattice(1.0, 1j)
    assert (
        tl.torus_extremal_length(square, 1, 0) * tl.torus_extremal_length(square, 0, 1)
        == 1.0
    )


@criterion(4, "pants orthogeodesics match the matrix-model oracle")
def test_pants_oracle_agreement():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        l1, l2, l3 = rng.uniform(0.05, 6.0, size=3)
        ortho = tl.pants_orthogeodesics(tl.PantsCuffs(l1, l2, l3))
        oracle = pants_oracle(l1, l2, l3)
        for key, expected in oracle.items():
            worst = max(worst, abs(getattr(ortho, key) - expected))
    assert worst <= 1e-8, worst
    # pentagon limit: seams vary continuously as one cuff degenerates
    limit = tl.pants_orthogeodesics(tl.PantsCuffs(2, 2, 0))
    diffs = [
        abs(tl.pants_orthogeodesics(tl.PantsCuffs(2, 2, l3)).d12 - limit.d12)
        for l3 in (1e-2, 1e-3, 1e-4)
    ]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] <= 1e-6, diffs


@criterion(5, "collar modulus identity m*delta + 2*delta/eps0 = pi")
def test_collar_modulus_identity():
    for eps0 in (0.3, 0.5):
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            m = tl.collar_modulus(delta, eps0)
            assert abs(m * delta + 2 * delta / eps0 - math.pi) <= 1e-12


@criterion(6, "Dehn twists shift the twist estimate integer-exactly")
def test_twist_calculus_exact():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        # dyadic twist coordinates keep the float arithmetic exact
        s = {name: float(rng.integers(-(2**24), 2**24)) / 2**20 for name in GENUS2.curves}
        lengths = {name: float(rng.uniform(0.01, 2.0)) for name in GENUS2.curves}
        sigma = tl.FNPoint(lengths, s)
        i1, i2 = 2 * int(rng.integers(1, 3)), 2 * int(rng.integers(0, 3))
        beta = genus2_curve(i1=i1, b1=int(rng.integers(-8, 9)), i2=i2)
        j = "g1"
        k = int(rng.integers(-20, 21))
        before = tl.estimated_twist(beta, sigma, j)
        assert tl.estimated_twist(beta, tl.fn_dehn_twist(sigma, j, k), j) - before == k
        assert tl.estimated_twist(tl.curve_dehn_twist(beta, j, k), sigma, j) - before == k


@criterion(7, "annulus crossing counts obey the twist-gap law")
def test_crossing_law_grid():
    grid = np.arange(-10.0, 10.25, 0.25)
    for t1 in grid:
        for t2 in grid:
            count = tl.annulus_arc_crossings(float(t1), float(t2))
            gap = abs(t2 - t1)
            assert gap - 1 <= count <= gap + 1, (t1, t2, count)


@criterion(8, "twisting a crossing curve grows the estimate quadratically")
def test_twist_quadratic_growth():
    sigma = genus2_point(l1=0.01, s1=0.3)
    beta = genus2_curve(i1=2)
    base = tl.lambda_surface_estimate(beta, sigma, GENUS2).value
    ks = [2 ** j for j in range(4, 13)]
    growth = [
        tl.lambda_surface_estimate(beta, tl.fn_dehn_twist(sigma, "g1", k), GENUS2).value
        - base
        for k in ks
    ]
    slope = float(np.polyfit(np.log(ks), np.log(growth), 1)[0])
    assert abs(slope - 2.0) <= 0.05, slope


@criterion(9, "product-model discrepancy stays bounded while distances grow")
def test_product_region_stability():
    start = time.perf_counter()
    family = tl.default_curve_family(GENUS2)
    for l1 in (1e-2, 1e-3):
        sigma = genus2_point(l1=l1)
        d_product, discrepancy = [], []
        for shift in (2 ** j for j in range(4, 13)):
            for ratio in (10.0, 100.0, 1000.0):
                lengths = dict(sigma.lengths)
                lengths["g1"] = l1 / ratio
                twists = dict(sigma.twists)
                twists["g1"] = twists["g1"] + shift
                tau = tl.FNPoint(lengths, twists)
                report = tl.product_region_discrepancy(
                    sigma, tau, ["g1"], GENUS2, family=family
                )
                d_product.append(report.d_product)
                discrepancy.append(report.discrepancy)
        disc_range = max(discrepancy) - min(discrepancy)
        dist_range = max(d_product) - min(d_product)
        assert disc_range <= 0.7, (l1, disc_range)
        assert dist_range >= 2.0, (l1, dist_range)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed


@criterion(10, "instability witnesses, growth rates, and closed form")
def test_instability():
    sup2 = tl.sup_product_space(2)
    for L in (1.0, 10.0, 100.0):
        value, _ = tl.instability_lower_bound(sup2, 0.0, L, budget=100)
        assert value >= L / 2 - 1e-9, (L, value)
    ladder = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    fit = tl.growth_rate_estimate(sup2, 0.0, ladder, budget=60)
    assert abs(fit.slope - 1.0) <= 0.05, fit.slope
    exact_fit = tl.growth_rate_estimate(
        None, 0.5, ladder,
        s_values=[tl.euclidean_instability_exact(0.5, L) for L in ladder],
    )
    assert abs(exact_fit.slope - 0.5) <= 0.05, exact_fit.slope
    euc2 = tl.euclidean_space(2)
    for delta in (0.02, 0.2):
        for L in (1.0, 10.0):
            exact = tl.euclidean_instability_exact(delta, L)
            value, _ = tl.instability_lower_bound(euc2, delta, L, budget=200)
            assert value >= 0.95 * exact, (delta, L, value, exact)
            assert value <= exact + 1e-6


@criterion(11, "file round-trips and command determinism")
def test_cli_round_trip_and_determinism(tmp_path):
    import pathlib

    from teichlen.files import (
        parse_curves,
        parse_fn,
        parse_surface,
        serialize_curves,
        serialize_fn,
        serialize_surface,
    )

    data = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
    surface = data / "genus2.surf"
    marking = parse_surface(surface.read_text())
    assert serialize_surface(marking) == surface.read_text()
    for fn_file in sorted(data.glob("genus2*.fn")):
        text = fn_file.read_text()
        assert serialize_fn(parse_fn(text, marking), marking) == text
    curve_text = (data / "genus2_curves.crv").read_text()
    assert serialize_curves(parse_curves(curve_text, marking), marking) == curve_text

    commands = [
        ("validate", str(surface)),
        ("collar", str(surface), str(data / "genus2_thin.fn")),
        ("--format", "rows", "extremal", str(surface), str(data / "genus2_thin.fn"),
         str(data / "genus2_curves.crv")),
        ("distance", str(surface), str(data / "genus2_thin.fn"),
         str(data / "genus2_twisted.fn")),
        ("product", str(surface), str(data / "genus2_thin.fn"),
         str(data / "genus2_twisted.fn"), "--gamma", "g1"),
        ("instability", "--space", "supprod:2", "--delta", "0",
         "--ladder", "1,10,100,1000,10000"),
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            assert cli_main(list(argv), out=buffer) == 0, argv
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1], argv
        assert outputs[0].strip(), argv
