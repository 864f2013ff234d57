"""File formats (canonical round-trip) and the command-line front end."""

import io
import math
import os
import pathlib

import pytest

from teichlen import ParseError
from teichlen import ValidationError
from teichlen import (
    UHPoint,
    hyp_distance,
    kerckhoff_distance_estimate,
    pair_curve_family,
    sup_product_space,
)
from teichlen import cli
from teichlen.cli import main
from teichlen.files import (
    parse_curves,
    parse_fn,
    parse_surface,
    serialize_curves,
    serialize_fn,
    serialize_surface,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"

SURFACE = DATA / "genus2.surf"
FN_THIN = DATA / "genus2_thin.fn"
FN_CORE = DATA / "genus2_core.fn"
FN_TWISTED = DATA / "genus2_twisted.fn"
FN_PINCHED = DATA / "genus2_pinched.fn"
CURVES = DATA / "genus2_curves.crv"
GENUS2 = SURFACE.read_text()
FN = FN_THIN.read_text()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFileRoundTrip:
    def test_surface_round_trip(self):
        text = SURFACE.read_text()
        assert serialize_surface(parse_surface(text)) == text

    def test_all_surface_files_round_trip(self):
        for path in sorted(DATA.glob("*.surf")):
            text = path.read_text()
            assert serialize_surface(parse_surface(text)) == text, path.name

    def test_fn_round_trip(self):
        marking = parse_surface(SURFACE.read_text())
        for path in (FN_THIN, FN_CORE, FN_TWISTED, FN_PINCHED):
            text = path.read_text()
            assert serialize_fn(parse_fn(text, marking), marking) == text, path.name

    def test_curves_round_trip(self):
        marking = parse_surface(SURFACE.read_text())
        text = CURVES.read_text()
        assert serialize_curves(parse_curves(text, marking), marking) == text

    def test_comments_and_spacing_tolerated(self):
        marking = parse_surface(SURFACE.read_text())
        text = "[fn]\n# comment\ng1 = 0.5 0.0  # inline\ng2=1.0 0.0\ng3 = 2 1e-1\n"
        point = parse_fn(text, marking)
        assert point.length("g1") == 0.5
        assert point.twist("g3") == 0.1

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_surface("[surface]\ngenus == 2\n")
        assert "line 2" in str(err.value)

    def test_missing_section_rejected(self):
        with pytest.raises(ParseError):
            parse_surface("[surface]\ngenus = 2\n")

    GENUS2 = SURFACE.read_text()

    @pytest.mark.parametrize("parse, text, line", [
        (parse_fn, "[fn]\ng1 = 0.01 0.0\ng1 = 5.0 0.0\ng2 = 1.2 0.1\ng3 = 0.8 -0.2\n", 3),
        (parse_fn, "[fn]\ng1 = 0.01 0.0\ng2 = 1.2 0.1\ng3 = 0.8 -0.2\n[fn]\n", 5),
        (parse_curves, '[curve "x"]\ng1 = 0 0 1\ng1 = 2 1\n', 3),
        (parse_curves, '[curve "x"]\ng1 = 0 0 1\n\n[curve "x"]\ng2 = 0 0 1\n', 4),
        (parse_surface, GENUS2.replace("g1 = 0\n", "g1 = 0\ng1 = 1\n"), 17),
        (parse_surface, "[surface]\ngenus = 2\n" + GENUS2, 3),
        (parse_surface, GENUS2.replace("g2 = +\n", "g1 = +\n"), 8),
        (parse_surface, GENUS2.replace("pB = ", "pA = "), 13),
    ], ids=["fn-key", "fn-section", "curve-key", "curve-section", "surface-seam",
            "surface-section", "surface-curve-name", "surface-pants-name"])
    def test_repeats_rejected_at_their_line(self, parse, text, line):
        # a repeated key or section header once overwrote the first one silently
        args = (text,) if parse is parse_surface else (text, parse_surface(self.GENUS2))
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse(*args)

    @pytest.mark.parametrize("call, error, line", [
        (lambda m: parse_surface("[surface]\ngenus 2\n"), ParseError, 2),
        (lambda m: parse_surface(GENUS2.replace("pA = g1", "pA = ring:g1")), ParseError, 12),
        (lambda m: parse_surface(GENUS2.replace("boundary = 0\n", "boundary = 0\nholes = 1\n")),
         ParseError, 5),
        (lambda m: parse_surface(GENUS2.replace("g1 = +", "g1 = up")), ParseError, 7),
        (lambda m: parse_surface(GENUS2.replace("pA = g1 g2 g3", "pA = g1 g2")), ParseError, 12),
        (lambda m: parse_surface(GENUS2 + "[extra]\n"), ParseError, 19),
        (lambda m: serialize_surface(m.pinch(["g1"])), ValidationError, None),
        (lambda m: parse_fn("[fn]\ng1 = x 0.0\n", m), ParseError, 2),
        (lambda m: parse_fn(FN + '[curve "x"]\n', m), ParseError, 5),
        (lambda m: parse_fn('[curve "x"]\n' + FN, m), ParseError, 1),
        (lambda m: parse_fn("# empty\n", m), ParseError, None),
        (lambda m: parse_fn(FN + "boundary:b1 = 1.0 2.0\n", m), ParseError, 5),
        (lambda m: parse_fn("[fn]\ng1 = 0.01\n", m), ParseError, 2),
        (lambda m: parse_curves('[curve "x"]\ng1 = 0 0 1\n\n[fn]\ng1 = 0.5 0.0\n', m),
         ParseError, 4),
        (lambda m: parse_curves("[curve]\ng1 = 0 0 1\n", m), ParseError, 1),
        (lambda m: parse_curves('[curve "x"]\ng1 = 1\n', m), ParseError, 2),
        (lambda m: parse_curves("# empty\n", m), ParseError, None),
        (lambda m: parse_fn(FN.replace("[fn]", '[fn "x"]'), m), ParseError, 1),
        (lambda m: parse_surface(GENUS2.replace("[pants]", '[pants "x"]')), ParseError, 11),
        (lambda m: parse_surface(GENUS2.replace("[surface]", '[surface "s"]')), ParseError, 1),
        (lambda m: parse_fn("eps1 = 0.2\n" + FN, m), ParseError, 1),
    ], ids=["no-equals", "end-kind", "surface-field", "orientation", "two-ends",
            "surface-section", "serialize-derived", "fn-number", "fn-then-curve",
            "curve-then-fn", "fn-empty", "fn-boundary-twist", "fn-no-twist", "curve-then-fn-section",
            "curve-no-label", "curve-one-token", "curves-empty", "fn-label", "pants-label",
            "surface-label", "content-before-header"])
    def test_malformed_input_rejected(self, call, error, line):
        # a whole-file error has no line; any other names the line at fault
        with pytest.raises(error) as err:
            call(parse_surface(self.GENUS2))
        assert getattr(err.value, "line", None) == line

    def test_fn_round_trip_with_a_boundary_length(self):
        marking = parse_surface((DATA / "holed_torus.surf").read_text())
        text = (DATA / "holed_torus.fn").read_text()
        assert serialize_fn(parse_fn(text, marking), marking) == text


class TestCliValidate:
    def test_genus2_summary(self):
        code, out = run_cli("validate", str(SURFACE))
        assert code == 0
        assert out == "3 curves, 2 pants, chi=-2\n"

    def test_punctured_torus_summary(self):
        code, out = run_cli("validate", str(DATA / "punctured_torus.surf"))
        assert code == 0
        assert out == "1 curve, 1 pants, chi=-1\n"

    def test_rows_format(self):
        code, out = run_cli("--format", "rows", "validate", str(SURFACE))
        assert code == 0
        assert out == "#curves\tpants\tchi\n3\t2\t-2\n"

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.surf"
        bad.write_text("[surface\n")
        assert run_cli("validate", str(bad))[0] == 2

    def test_validation_error_exit_code(self, tmp_path):
        # genus 2 with only 2 curves: curve-count mismatch
        bad = tmp_path / "bad.surf"
        bad.write_text(
            "[surface]\ngenus = 2\npunctures = 0\nboundary = 0\n\n"
            "[curves]\ng1 = +\ng2 = +\n\n"
            "[pants]\npA = g1 g2 g1\npB = g2 puncture:q puncture:r\n\n"
            "[seams]\ng1 = 0\ng2 = 0\n"
        )
        assert run_cli("validate", str(bad))[0] == 3


class TestCliCollar:
    def test_report(self):
        code, out = run_cli("collar", str(SURFACE), str(FN_THIN))
        assert code == 0
        assert "thin g1" in out
        assert "thick[pA,pB]" in out

    def test_numeric_domain_exit_code(self):
        # valid parameter ordering but a realized collar of modulus < 1
        code, _ = run_cli(
            "--eps0", "1.7", "--eps1", "1.69",
            "collar", str(SURFACE), str(DATA / "genus2_wide.fn"),
        )
        assert code == 4

    def test_bad_params_exit_code(self):
        code, _ = run_cli("--eps0", "0.05", "--eps1", "0.1",
                          "collar", str(SURFACE), str(FN_THIN))
        assert code == 3


class TestCliExtremal:
    def test_core_of_thin_value(self):
        code, out = run_cli(
            "--format", "rows",
            "extremal", str(SURFACE), str(FN_CORE), str(CURVES), "--curve", "core1",
        )
        assert code == 0
        total = [l for l in out.splitlines() if "TOTAL" in l][0]
        assert float(total.split("\t")[3]) == pytest.approx(0.016998, abs=5e-7)

    def test_breakdown_max_equals_total(self):
        code, out = run_cli(
            "--format", "rows", "extremal", str(SURFACE), str(FN_THIN), str(CURVES)
        )
        assert code == 0
        per_curve = {}
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            label, component, kind, value = line.split("\t")
            per_curve.setdefault(label, {})[component] = float(value)
        for label, rows in per_curve.items():
            total = rows.pop("TOTAL")
            assert total == max(rows.values())

    def test_unknown_curve_selection(self):
        code, _ = run_cli(
            "extremal", str(SURFACE), str(FN_THIN), str(CURVES), "--curve", "nope"
        )
        assert code == 3


class TestCliDistance:
    def test_identical_points_give_zero(self):
        code, out = run_cli(
            "distance", str(SURFACE), str(FN_THIN), str(FN_THIN)
        )
        assert code == 0
        assert "d_teich = 0\n" in out

    def test_symmetry_under_swap(self):
        args = ("distance", str(SURFACE))
        _, forward = run_cli(*args, str(FN_THIN), str(FN_TWISTED))
        _, backward = run_cli(*args, str(FN_TWISTED), str(FN_THIN))
        assert forward == backward


class TestCliProduct:
    def test_twist_only_deformation(self):
        code, out = run_cli(
            "--format", "rows",
            "product", str(SURFACE), str(FN_THIN), str(FN_TWISTED), "--gamma", "g1",
        )
        assert code == 0
        row = out.splitlines()[1].split("\t")
        # frozen: (1/2) arccosh(1 + 100/20000) for the twist-10 factor pair
        assert float(row[1]) == pytest.approx(0.04997919006934813, abs=1e-12)
        assert row[3] == "1"

    def test_surface_without_base_curve(self, tmp_path):
        holed = DATA / "holed_torus.surf"
        with pytest.warns(UserWarning):  # g1 = 0.8 is not thin
            code, _ = run_cli("product", str(holed), str(DATA / "holed_torus.fn"),
                              str(DATA / "holed_torus.fn"), "--gamma", "g1")
        assert code == 0
        # the pinched surface has no internal curve: d_product is the g1 factor distance
        (tmp_path / "a.fn").write_text("[fn]\ng1 = 0.05 0.25\nboundary:b1 = 1.5\n")
        (tmp_path / "b.fn").write_text("[fn]\ng1 = 0.004 -3\nboundary:b1 = 1.5\n")
        code, out = run_cli("--format", "rows", "product", str(holed),
                            str(tmp_path / "a.fn"), str(tmp_path / "b.fn"), "--gamma", "g1")
        assert code == 0
        row = out.splitlines()[1].split("\t")
        assert float(row[1]) == hyp_distance(UHPoint(0.25, 1 / 0.05), UHPoint(-3.0, 1 / 0.004))
        assert row[3] == "1"

    def test_gamma_must_be_internal(self):
        code, _ = run_cli(
            "product", str(SURFACE), str(FN_THIN), str(FN_TWISTED), "--gamma", "zz"
        )
        assert code == 3


class TestCliInstability:
    ARGS = (
        "instability", "--space", "supprod:2", "--delta", "0",
        "--ladder", "1,10,100,1000,10000",
    )

    def test_slope_one(self):
        code, out = run_cli("--format", "rows", "--budget", "60", *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "#delta\tL\ts_lower\tslope"
        slope = float(lines[1].split("\t")[3])
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_short_ladder_rejected(self):
        code, _ = run_cli(
            "instability", "--space", "supprod:2", "--delta", "0", "--ladder", "10"
        )
        assert code == 3

    def test_short_ladder_rejected_before_any_search(self, monkeypatch):
        kernel_calls = []

        def counted_sup_product_space(dim):
            space = sup_product_space(dim)
            kernel = space.segment_distances

            def segment_distances(triples, ts):
                kernel_calls.append(len(triples))
                return kernel(triples, ts)

            space.segment_distances = segment_distances
            return space

        monkeypatch.setattr(cli, "sup_product_space", counted_sup_product_space)
        argv = ("--budget", "5", "instability", "--space", "supprod:2", "--delta", "0")
        assert run_cli(*argv, "--ladder", "1,10,100,1000")[0] == 3
        assert kernel_calls == []
        assert run_cli(*argv, "--ladder", "1,10,100,1000,10000")[0] == 0
        assert kernel_calls  # the counter sees the searches of a well-formed ladder

    def test_unknown_space_rejected(self):
        code, _ = run_cli(
            "instability", "--space", "what:3", "--delta", "0",
            "--ladder", "1,10,100,1000,10000",
        )
        assert code == 3


class TestConfigResolution:
    def test_settings_come_from_flags_alone(self, monkeypatch):
        # no environment variable sets a run setting, and there is no --config flag
        argvs = (("validate", str(SURFACE)), ("collar", str(SURFACE), str(FN_THIN)))
        plain = [run_cli(*argv) for argv in argvs]
        monkeypatch.setenv("TEICHLEN_FORMAT", "rows")
        monkeypatch.setenv("TEICHLEN_EPS1", "0.005")  # would leave g1 (0.01) thick
        assert [run_cli(*argv) for argv in argvs] == plain
        with pytest.raises(SystemExit) as exit_:
            run_cli("--config", os.devnull, "validate", str(SURFACE))
        assert exit_.value.code == 2

    def test_boundary_length_bound_enforced(self, tmp_path):
        marking_path = DATA / "holed_torus.surf"
        fn = tmp_path / "big.fn"
        fn.write_text("[fn]\ng1 = 0.8 0.0\nboundary:b1 = 20.0\n")
        code, _ = run_cli("collar", str(marking_path), str(fn))
        assert code == 3
        code, _ = run_cli("collar", str(marking_path), str(DATA / "holed_torus.fn"))
        assert code == 0


class TestCliBadInput:
    INSTABILITY = ("instability", "--delta", "0", "--ladder", "1,10,100,1000,10000")

    @pytest.mark.parametrize("argv, code", [
        (INSTABILITY + ("--space", "supprod:x"), 3),
        (INSTABILITY + ("--space", "euclidean:"), 3),
        (("instability", "--space", "supprod:2", "--delta", "0", "--ladder", "1,a"), 3),
        (("instability", "--space", "euclidean:2", "--delta", "0",
          "--ladder", "1,10,100,1000,inf"), 3),
        (("instability", "--space", "euclidean:2", "--delta", "nan",
          "--ladder", "1,10,100,1000,10000"), 3),
        (("--budget", "0", "validate", str(SURFACE)), 3),
        (("product", str(SURFACE), str(FN_THIN), str(FN_CORE), "--gamma", ","), 3),
    ], ids=["space-bad-size", "space-empty-size", "ladder-not-a-number", "ladder-inf",
            "delta-nan", "budget-zero", "gamma-empty"])
    def test_exit_codes(self, argv, code):
        assert run_cli(*argv)[0] == code

    @pytest.mark.parametrize("command, suffix, text, line", [
        ("validate", ".surf", GENUS2.replace("boundary = 0\n", "boundary = 0\nholes = 1\n"), 5),
        ("collar", ".fn", FN + '\n[curve "x"]\ng1 = 0 0 1\n', 6),
        ("extremal", ".crv", '[curve "x"]\ng1 = 0 0 1\n\n[fn]\ng1 = 0.5 0.0\n', 4),
    ], ids=["surface-field", "fn-then-curve", "curve-then-fn"])
    def test_section_errors_name_their_line(self, tmp_path, capsys, command, suffix, text,
                                            line):
        bad = tmp_path / f"bad{suffix}"
        bad.write_text(text)
        paths = {"validate": [bad], "collar": [SURFACE, bad], "extremal": [SURFACE, FN_THIN, bad]}
        assert run_cli(command, *map(str, paths[command]))[0] == 2
        assert f"error: line {line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["distance", "extremal"])
    def test_overflowing_curve_length_exits_4(self, tmp_path, command):
        fn = tmp_path / "long.fn"
        fn.write_text("[fn]\ng1 = 2000 0.0\ng2 = 1.2 0.1\ng3 = 0.8 -0.2\n")
        other = FN_CORE if command == "distance" else CURVES
        assert run_cli(command, str(SURFACE), str(fn), str(other))[0] == 4

    def test_non_finite_distance_exits_4(self, tmp_path):
        fn = tmp_path / "far.fn"
        fn.write_text("[fn]\ng1 = 0.01 1e200\ng2 = 1.2 0.1\ng3 = 0.8 -0.2\n")
        assert run_cli("distance", str(SURFACE), str(FN_THIN), str(fn))[0] == 4

    def test_torus_n_flag_removed(self):
        with pytest.raises(SystemExit):
            run_cli("--torus-n", "5", "validate", str(SURFACE))

    def test_family_b_flag_removed(self):
        with pytest.raises(SystemExit):
            run_cli("--family-b", "3", "validate", str(SURFACE))


class TestCliOutputPaths:
    # The exact table texts pin the table format of each command.  Measuring
    # thick-part arcs only inside the thick part will move d_teich, and the
    # product text with it.
    def test_collar_table(self):
        code, out = run_cli("collar", str(SURFACE), str(FN_THIN))
        assert code == 0
        assert out == ("thin annuli: 1, thick components: 1\n"
                       "  thin g1: core length 0.01, modulus 310.159\n"
                       "  thick[pA,pB]\n")

    def test_collar_table_marks_a_peripheral_annulus(self, tmp_path):
        fn = tmp_path / "thin_boundary.fn"
        fn.write_text("[fn]\ng1 = 0.8 0.0\nboundary:b1 = 0.05\n")
        code, out = run_cli("collar", str(DATA / "holed_torus.surf"), str(fn))
        assert code == 0
        assert out == ("thin annuli: 1, thick components: 1\n"
                       "  thin b1: core length 0.05, modulus 58.8319 (peripheral)\n"
                       "  thick[p]\n")

    def test_product_table(self):
        code, out = run_cli("product", str(SURFACE), str(FN_THIN), str(FN_TWISTED),
                            "--gamma", "g1")
        assert code == 0
        assert out == "d_teich = 0.0506231\nd_product = 0.0499792\ndiscrepancy = 0.000643959\n"

    def test_instability_table(self):
        code, out = run_cli(*TestCliInstability.ARGS)
        assert code == 0
        assert out == ("delta=0 L=1 s_lower=0.5 slope=1\n"
                       "delta=0 L=10 s_lower=5 slope=1\n"
                       "delta=0 L=100 s_lower=50 slope=1\n"
                       "delta=0 L=1000 s_lower=500 slope=1\n"
                       "delta=0 L=10000 s_lower=5000 slope=1\n")

    def test_extremal_table(self):
        code, out = run_cli("extremal", str(SURFACE), str(FN_THIN), str(CURVES),
                            "--curve", "core1")
        assert code == 0
        assert out == ("  core1 annulus g1: 0.00322415\n"
                       "  core1 thick   thick[pA,pB]: 0\n"
                       "core1: extremal length estimate 0.00322415\n")

    # cross1 and snake enter the thick pants, and snake adds a twist-travel
    # term on g2; measuring thick-part arcs only inside the thick part
    # (ROADMAP item 1) will move the thick values of this and the next text
    def test_extremal_table_with_thick_arcs(self):
        code, out = run_cli("extremal", str(SURFACE), str(FN_THIN), str(CURVES))
        assert code == 0
        assert out == ("  core1 annulus g1: 0.00322415\n"
                       "  core1 thick   thick[pA,pB]: 0\n"
                       "core1: extremal length estimate 0.00322415\n"
                       "  cross1 annulus g1: 1240.64\n"
                       "  cross1 thick   thick[pA,pB]: 741.956\n"
                       "cross1: extremal length estimate 1240.64\n"
                       "  snake annulus g1: 1240.75\n"
                       "  snake thick   thick[pA,pB]: 973.752\n"
                       "snake: extremal length estimate 1240.75\n")

    def test_extremal_table_with_a_peripheral_annulus(self, tmp_path):
        fn = tmp_path / "thin_boundary.fn"
        fn.write_text("[fn]\ng1 = 0.8 0.0\nboundary:b1 = 0.05\n")
        curves = tmp_path / "holed.crv"
        curves.write_text('[curve "x"]\ng1 = 2 1\n\n[curve "core"]\ng1 = 0 0 1\n')
        code, out = run_cli("extremal", str(DATA / "holed_torus.surf"), str(fn), str(curves))
        assert code == 0
        assert out == ("  core annulus b1: 0\n"
                       "  core thick   thick[p]: 0\n"
                       "core: extremal length estimate 0\n"
                       "  x annulus b1: 0\n"
                       "  x thick   thick[p]: 65.4624\n"
                       "x: extremal length estimate 65.4624\n")

    def test_distance_rows_carry_the_estimate(self):
        code, out = run_cli("--format", "rows", "distance",
                            str(SURFACE), str(DATA / "genus2_wide.fn"), str(FN_TWISTED))
        assert code == 0
        header, value = out.splitlines()
        marking = parse_surface(SURFACE.read_text())
        sigma, tau = (parse_fn(path.read_text(), marking)
                      for path in (DATA / "genus2_wide.fn", FN_TWISTED))
        expected = kerckhoff_distance_estimate(
            sigma, tau, pair_curve_family(marking, sigma, tau), marking)
        assert header == "#d_teich"
        assert float(value) == expected > 0

    def test_product_warns_when_gamma_is_not_thin(self):
        with pytest.warns(UserWarning):
            code, out = run_cli("product", str(SURFACE),
                                str(DATA / "genus2_wide.fn"), str(FN_TWISTED), "--gamma", "g1")
        assert code == 0
        assert out.splitlines()[-1] == "warning: pinched curves are not thin at both points"

    @pytest.mark.parametrize("space", ["hyp-product:2", f"pi-image:{SURFACE}"])
    def test_instability_on_half_plane_spaces(self, space):
        code, out = run_cli("--format", "rows", "--budget", "30", "instability",
                            "--space", space, "--delta", "0",
                            "--ladder", "1,10,100,1000,10000")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "#delta\tL\ts_lower\tslope"
        assert [row.split("\t")[1] for row in rows] == ["1", "10", "100", "1000", "10000"]
        for row in rows:
            _, L, s_lower, slope = map(float, row.split("\t"))
            assert 0 < s_lower <= L / 2
            assert math.isfinite(slope)

    @pytest.mark.parametrize("surface, product", [("genus2.surf", "hyp-product:3"),
                                                  ("holed_torus.surf", "hyp-product:1")])
    def test_pi_image_prints_hyp_product_rows(self, surface, product):
        # the pi-image space of k pinched curves is hyp-product:k under another name
        outputs = [run_cli("--format", "rows", "--budget", "30", "instability",
                           "--space", space, "--delta", "0",
                           "--ladder", "1,10,100,1000,10000")
                   for space in (f"pi-image:{DATA / surface}", product)]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


class TestCliBoundaryBound:
    BIG = "[fn]\ng1 = 0.8 0.0\nboundary:b1 = 20.0\n"
    HOLED = (str(DATA / "holed_torus.surf"), str(DATA / "holed_torus.fn"))

    @pytest.mark.parametrize("command", ["distance", "product"])
    def test_checked_on_both_points(self, tmp_path, capsys, command):
        big = tmp_path / "big.fn"
        big.write_text(self.BIG)
        surface, fine = self.HOLED
        gamma = ("--gamma", "g1") if command == "product" else ()
        for pair in ((fine, str(big)), (str(big), fine)):
            assert run_cli(command, surface, *pair, *gamma)[0] == 3
            assert "> ell0 = 10.0" in capsys.readouterr().err
