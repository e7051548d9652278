"""Command line: expression grammar, config files, exit codes, export."""

import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkernel import cli
from gfkernel.basic import eval_basic, iota, sigma
from gfkernel.cli import _COMMANDS, main, parse_config, parse_expr
from gfkernel.dist import delta, heaviside
from gfkernel.errors import ConfigError, ParseError
from gfkernel.smooth import CompactInterval, Domain, sin_fn

DOM = Domain.interval(-2.0, 2.0)


@pytest.fixture()
def quick_cfg(tmp_path):
    p = tmp_path / "quick.cfg"
    p.write_text("# trimmed grid for tests\nks = 8, 16\n")
    return str(p)


class TestExpressions:
    def test_composite_expression_evaluates_like_manual_build(self, q3_seq):
        R = parse_expr("iota(delta(0)) * iota(H) + sigma(fn:sin)", DOM)
        manual = (iota(delta(0.0, domain=DOM)) * iota(heaviside(DOM))
                  + sigma(sin_fn(), DOM))
        ker = q3_seq.at(8)
        xs = np.linspace(-0.3, 0.3, 5)
        np.testing.assert_allclose(eval_basic(R, ker).jet(xs, 0),
                                   eval_basic(manual, ker).jet(xs, 0),
                                   rtol=0, atol=1e-12)

    def test_scalars_scale_elements(self, q3_seq):
        R = parse_expr("2 * sigma(fn:one) - sigma(fn:one)", DOM)
        out = eval_basic(R, q3_seq.at(8))
        assert out.jet(0.7, 0) == 1.0

    def test_derivative_order_syntax(self):
        R = parse_expr("iota(ddelta(0.5, 2))", DOM)
        assert R.u.deltas[0].order == 2
        assert R.u.deltas[0].point == 0.5

    def test_restrict_syntax(self):
        R = parse_expr("restrict[-1, 1](iota(delta(0)))", DOM)
        assert R.domain.intervals == ((-1.0, 1.0),)

    def test_lie_syntax(self, q3_seq):
        R = parse_expr("lietilde(iota(H))", DOM)
        base = parse_expr("iota(H)", DOM)
        ker = q3_seq.at(16)
        xs = np.linspace(-0.1, 0.1, 5)
        np.testing.assert_allclose(eval_basic(R, ker).jet(xs, 0),
                                   eval_basic(base, ker).jet(xs, 1),
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("src,fragment", [
        ("iota(delta(0)", "expected ')'"),
        ("iota(welp(0))", "unknown distribution"),
        ("3.5", "bare number"),
        ("sigma(fn:nope)", "unknown function"),
        ("iota(delta(0)) !", "trailing input"),
        ("restrict[1, -1](iota(delta(0)))", "empty restriction"),
        ("", "expected a factor"),
        ("1e999 * iota(delta(0))", "not finite"),
        ("iota(ddelta(0, 1e400))", "not finite"),
        ("iota(ddelta(0, 1.5))", "whole number"),
        ("iota(delta(5))", "outside the domain"),
        ("restrict[0.5, 3](iota(delta(0)))", "leaves the domain"),
        ("(" * 1200 + "iota(delta(0))" + ")" * 1200, "nested too deeply"),
    ])
    def test_parse_errors_carry_position(self, src, fragment):
        with pytest.raises(ParseError) as exc:
            parse_expr(src, DOM)
        assert fragment in str(exc.value)
        assert "position" in str(exc.value)


_GRAMMAR_TOKENS = [
    "iota", "sigma", "liehat", "lietilde", "restrict", "delta", "ddelta",
    "H", "fn:", "sin", "x2", "nope", "(", ")", "[", "]", ",", "+", "-", "*",
    ".", "e", "0", "1", "9", "1e308", " ",
]
# well-formed pieces, so that fragments reach the combining rules too
_WELL_FORMED = st.recursive(
    st.sampled_from(["iota(H)", "iota(delta(0.5))", "sigma(fn:sin)", "2", "1e308"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        inner.map("restrict[0,1]({})".format),
        inner.map("liehat({})".format),
        inner.map("({})".format)),
    max_leaves=6)


@settings(max_examples=1000)
@given(st.lists(st.one_of(st.sampled_from(_GRAMMAR_TOKENS), _WELL_FORMED),
                max_size=8).map("".join))
def test_parser_fuzz_raises_only_parse_errors(src):
    try:
        parse_expr(src, DOM)
    except ParseError:
        pass


def test_repeated_leaves_are_one_distribution():
    R = parse_expr("iota(H)*iota(H) - iota(H)", DOM)
    (a, b), c = R.parts[0].parts, R.parts[1].a
    assert a.u is b.u is c.u
    R = parse_expr("iota(fn:sin) * iota(fn:sin) + iota(fn:x2)", DOM)
    a, b = R.parts[0].parts
    assert a.u is b.u and R.parts[1].u is not a.u
    # each expression builds its own
    assert parse_expr("iota(H)", DOM).u is not parse_expr("iota(H)", DOM).u


class TestConfig:
    def test_full_config_roundtrip(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text(
            "# comment line\n"
            "domain = -1, 1\n"
            "\n"
            "ks = 4, 8, 16   # inline comment\n"
            "grade = 2\n"
            "region = -0.25, 0.25\n")
        cfg = parse_config(str(p))
        assert cfg["domain"].intervals == ((-1.0, 1.0),)
        assert cfg["ks"] == (4, 8, 16)
        assert cfg["grade"] == 2
        assert cfg["region"] == CompactInterval(-0.25, 0.25)

    @pytest.mark.parametrize("text,fragment", [
        ("spam = 1\n", "unknown key"),
        ("ks = 8\n", "bad value"),
        ("ks = 16, 8\n", "bad value"),
        ("ks = 0, 8\n", "bad value"),
        ("grade = two\n", "bad value"),
        ("grade = -1\n", "bad value"),
        ("domain -2 2\n", "expected key=value"),
        ("ks = 8, 16\nks = 8, 16\n", "duplicate"),
    ])
    def test_config_errors(self, tmp_path, text, fragment):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert fragment in str(exc.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/nowhere.cfg")


class TestExitCodes:
    def test_bad_expression_is_usage_error(self, capsys):
        assert main(["classify", "iota(delta(0)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("spam = 1\n")
        assert main(["--config", str(p), "demo"]) == 2

    def test_non_finite_sweep_is_numerical_failure(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "classify",
                     "1e200*iota(delta(0))*(1e200*iota(delta(0)))"])
        assert code == 3
        assert "not all finite" in capsys.readouterr().err

    def test_overflow_stops_the_run_without_a_warning(self, quick_cfg, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", quick_cfg, "classify",
                         "1e200*iota(delta(0))*(1e200*iota(delta(0)))"])
        assert code == 3
        assert "not all finite" in capsys.readouterr().err

    def test_huge_delta_order_is_numerical_failure(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "classify", "iota(ddelta(0, 1e18))"])
        assert code == 3
        assert "exceeds jet cap" in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, quick_cfg, capsys,
                                                    monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(_COMMANDS, "classify", broken)
        assert main(["--config", quick_cfg, "classify", "iota(delta(0))"]) == 4
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", [
        "*".join(["sigma(fn:one)"] * 1500),
        "+".join(["sigma(fn:one)"] * 1500),
        "*".join(["iota(delta(1.5))"] * 1500),
        "liehat(liehat(" + "*".join(["iota(delta(1.5))"] * 1500) + "))",
    ], ids=["sigma-product", "sigma-sum", "pointmass-product", "nested-liehat-product"])
    def test_long_flat_chain_classifies(self, quick_cfg, capsys, expr):
        # a chain far longer than the recursion limit: only nesting recurses
        assert main(["--config", quick_cfg, "classify", expr]) == 0
        assert "moderate: True" in capsys.readouterr().out

    def test_region_outside_domain_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "wide.cfg"
        p.write_text("ks = 8, 16\nregion = -3, 3\n")
        assert main(["--config", str(p), "classify", "iota(delta(0))"]) == 2
        assert "not inside the domain" in capsys.readouterr().err

    def test_negative_grade_option_is_usage_error(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "validate-testobject", "--grade", "-2"])
        assert code == 2
        assert "grade must be >= 0" in capsys.readouterr().err

    def test_moderate_element_classifies_clean(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "classify", "iota(delta(0))"])
        out = capsys.readouterr().out
        assert code == 0
        assert "moderate: True" in out
        assert "negligible: False" in out

    def test_unassociated_element_reports_failure(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "associate", "iota(delta(0))"])
        assert code == 1
        assert "associated: False" in capsys.readouterr().out

    def test_associate_across_domains_is_usage_error(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "associate", "iota(delta(0))",
                     "restrict[-1,1](iota(delta(0)))"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: the right operand lives on")

    def test_lie_check_on_point_mass(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "lie-check", "iota(delta(0))"])
        assert code == 0

    def test_lie_check_on_the_step_passes_off_the_plateau(self, capsys):
        # its hardest pairing row sits at x = 1.82, off the scale plateau,
        # where the kernel's x-derivatives grow with the profile's m'/m
        start = time.perf_counter()
        code = main(["lie-check", "iota(H)"])
        seconds = time.perf_counter() - start
        assert capsys.readouterr().out.rstrip().endswith("associated: True")
        assert code == 0
        assert seconds < 10.0

    def test_validate_subcommand(self, quick_cfg, capsys):
        code = main(["--config", quick_cfg, "validate-testobject",
                     "--grade", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: pass" in out

    def test_sheaf_demo(self, quick_cfg, capsys):
        assert main(["--config", quick_cfg, "sheaf-demo"]) == 0
        out = capsys.readouterr().out
        assert "sup = 0.00000000000000000e+00" in out

    def test_demo_prints_anomaly_value(self, quick_cfg, capsys):
        assert main(["--config", quick_cfg, "demo"]) == 0
        assert "half the bump's center value" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["demo", "sheaf-demo", "export"])
    def test_demos_run_on_a_domain_without_zero(self, tmp_path, capsys, command):
        p = tmp_path / "shifted.cfg"
        p.write_text("domain = 1, 5\nks = 8, 16\n")
        assert main(["--config", str(p), command]) == 0


class TestExport:
    def test_csv_shape_and_determinism(self, quick_cfg, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", quick_cfg, "export", "--out", str(out1)]) == 0
        assert main(["--config", quick_cfg, "export", "--out", str(out2)]) == 0
        a, b = out1.read_bytes(), out2.read_bytes()
        assert a == b
        lines = a.decode().strip().split("\n")
        assert lines[0] == "experiment,k,seminorm,value,slope,verdict"
        # 6 residual experiments + 2 sweeps, 2 rates each
        assert len(lines) == 1 + 8 * 2
        assert all(line.endswith(",true") for line in lines[1:])

    def test_unwritable_out_is_usage_error(self, quick_cfg, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main(["--config", quick_cfg, "export", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}")

    def test_unwritable_out_fails_before_any_sweep(self, quick_cfg, tmp_path, capsys,
                                                   monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("swept before opening the output")

        monkeypatch.setattr(cli, "embedding_residual_sweep", sweep)
        target = tmp_path / "missing" / "x.csv"
        assert main(["--config", quick_cfg, "export", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: test-fn 8 reads 1.001e-13 at k = 128 against the "
    "constant 1e-13 floor, so the pair reads as not associated"))
def test_ddelta_against_its_lie_derivative_is_associated(capsys):
    # found by the association benchmark at seed 951; theory says True
    code = main(["associate", "--", "-1.464*iota(ddelta(0.151,1))",
                 "liehat(-1.464*iota(delta(0.151)))"])
    assert "associated: True" in capsys.readouterr().out
    assert code == 0


def test_console_script_runs(quick_cfg):
    got = subprocess.run(
        [sys.executable, "-m", "gfkernel.cli", "--config", quick_cfg,
         "classify", "sigma(fn:one)"],
        capture_output=True, text=True)
    assert got.returncode == 0
    assert "moderate: True" in got.stdout
