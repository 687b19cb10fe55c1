import json
import math
from dataclasses import fields

import pytest

from fracpolylog import FracpolylogError, Order, ToleranceConfig, eval_auto, eval_negint_closed
from fracpolylog.cli import (
    ENV_CONFIG,
    _skip_reason,
    build_parser,
    load_config,
    main,
    parse_complex,
    parse_grid,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("3", 3.0 + 0j),
            ("-2.5", -2.5 + 0j),
            ("1e-3", 1e-3 + 0j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("-0.5-0.25I", -0.5 - 0.25j),
            ("1e-3+2.5e-4i", 1e-3 + 2.5e-4j),
            (" 0.3 ", 0.3 + 0j),
            ("1 + 2i", 1 + 2j),
            ("2 i", 2j),
        ],
    )
    def test_grammar(self, text, want):
        assert parse_complex(text) == want

    @pytest.mark.parametrize("text", ["abc", "1+2", "i2", "1++2i", ""])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)


class TestParseGrid:
    def test_inclusive_linspace(self):
        pts = parse_grid("0:1:5")
        assert pts == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_point(self):
        assert parse_grid("2:9:1") == [2.0]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("0:1")
        with pytest.raises(ValueError):
            parse_grid("0:1:0")


class TestEvalCommand:
    def test_series_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--z", "0.25")
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "Series"
        assert rec["value"]["re"] == pytest.approx(0.30573493039929638, abs=1e-10)

    def test_on_cut_refused_with_guidance(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "0.5", "--z", "2")
        assert code == 2
        assert "on branch cut [1,inf); use jump or --side" in err

    def test_side_limit(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--z", "2", "--side", "above")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"]["im"] == pytest.approx(2.1289340388624523, abs=1e-6)

    def test_side_needs_real_z(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "0.5", "--z", "2+1i", "--side", "above")
        assert code == 1

    def test_method_override(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--z", "0.25", "--method", "hankel")
        assert code == 0
        assert json.loads(out)["method"] == "Hankel"

    def test_jonquiere_method(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "6.5", "--z=-3", "--method", "jonquiere")
        assert code == 0
        assert json.loads(out)["method"] == "Jonquiere"

    def test_zeta_method_takes_z_and_logs_it(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "-0.5", "--z", "0.5", "--method", "zeta")
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "ZetaSeries"

    def test_negint_method_is_the_closed_form(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha=-2", "--z", "0.3+0.4i", "--method", "negint")
        assert code == 0
        rec = json.loads(out)
        want = eval_negint_closed(Order.of(-2), 0.3 + 0.4j)
        assert complex(rec["value"]["re"], rec["value"]["im"]) == want.value
        assert rec["err_estimate"] == want.err_estimate

    def test_negint_method_takes_order_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0", "--z", "0.25", "--method", "negint")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"]["re"] == 0.25 / 0.75 and rec["value"]["im"] == 0.0
        assert rec["method"] == "NegIntClosed"

    def test_negint_method_refuses_other_orders(self, capsys):
        code, _, _ = run(capsys, "eval", "--alpha", "0.5", "--z", "0.25", "--method", "negint")
        assert code == 2

    def test_bad_complex_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "0.5", "--z", "abc")
        assert code == 1

    def test_branch_point_is_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "0.5", "--z", "0")
        assert code == 2

    def test_nonconvergence_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "eval", "--alpha", "0.5", "--z", "0.45",
            "--max-series-terms", "5",
        )
        assert code == 3

    def test_plain_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--alpha", "0.5", "--z", "0.25", "--format", "plain"
        )
        assert code == 0
        assert "value = 0.305734930" in out
        assert "method = Series" in out


class TestConfigPlumbing:
    def test_config_file_via_flag(self, tmp_path, capsys):
        cfgfile = tmp_path / "t.conf"
        cfgfile.write_text("max_series_terms = 5\n# comment line\n")
        code, _, _ = run(
            capsys,
            "eval", "--alpha", "0.5", "--z", "0.45", "--config", str(cfgfile),
        )
        assert code == 3  # the starved series cannot converge

    def test_config_file_via_environment(self, tmp_path, capsys, monkeypatch):
        cfgfile = tmp_path / "t.conf"
        cfgfile.write_text("max_series_terms=5\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfgfile))
        code, _, _ = run(capsys, "eval", "--alpha", "0.5", "--z", "0.45")
        assert code == 3

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "t.conf"
        cfgfile.write_text("max_series_terms=5\n")
        code, _, _ = run(
            capsys,
            "eval", "--alpha", "0.5", "--z", "0.45",
            "--config", str(cfgfile), "--max-series-terms", "1000000",
        )
        assert code == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "t.conf"
        cfgfile.write_text("max_series_term=5\n")
        code, _, err = run(
            capsys, "eval", "--alpha", "0.5", "--z", "0.25", "--config", str(cfgfile)
        )
        assert code == 1
        assert "max_series_term" in err

    def test_invalid_value_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "t.conf"
        cfgfile.write_text("hankel_angle=3.0\n")
        code, _, _ = run(
            capsys, "eval", "--alpha", "0.5", "--z", "0.25", "--config", str(cfgfile)
        )
        assert code == 1


TOLERANCE_FIELDS = [f.name for f in fields(ToleranceConfig)]


def _changed_value(name: str):
    # a valid value other than the default, of the field's own type
    default = getattr(ToleranceConfig(), name)
    return default + 1 if isinstance(default, int) else default / 2.0


class TestEveryToleranceField:
    @pytest.mark.parametrize("name", TOLERANCE_FIELDS)
    def test_accepted_as_flag(self, name):
        value = _changed_value(name)
        flag = "--" + name.replace("_", "-")
        args = build_parser().parse_args(["eval", "--alpha=0.5", "--z=0.25", flag, repr(value)])
        assert getattr(load_config(args).tolerances, name) == value

    @pytest.mark.parametrize("name", TOLERANCE_FIELDS)
    def test_accepted_as_config_key(self, name, tmp_path):
        value = _changed_value(name)
        cfgfile = tmp_path / "t.conf"
        cfgfile.write_text(f"{name} = {value!r}\n")
        args = build_parser().parse_args(["eval", "--alpha=0.5", "--z=0.25", "--config", str(cfgfile)])
        assert getattr(load_config(args).tolerances, name) == value

    def test_int_field_refuses_a_fraction_both_ways(self, tmp_path, capsys):
        code, _, _ = run(capsys, "eval", "--alpha=0.5", "--z=0.25", "--quad-max-depth", "1.5")
        assert code == 1
        cfgfile = tmp_path / "t.conf"
        cfgfile.write_text("quad_max_depth = 1.5\n")
        code, _, _ = run(capsys, "eval", "--alpha=0.5", "--z=0.25", "--config", str(cfgfile))
        assert code == 1


class TestMonodromyCommand:
    def test_transported_value(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "--alpha", "0.5", "--z", "0.3", "--word", "c1"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["vector"]["m"]["0"]["re"] == pytest.approx(-2.0, abs=1e-12)
        assert rec["method"] == "CoverTransport"

    def test_word_reduction_shown(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "--alpha", "0.5", "--z", "0.3", "--word", "c0 c0^-1 c1"
        )
        assert code == 0
        assert json.loads(out)["word"] == "c1"

    def test_bad_word_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "monodromy", "--alpha", "0.5", "--z", "0.3", "--word", "c7"
        )
        assert code == 1


class TestJumpCommand:
    def test_half_order_jump(self, capsys):
        code, out, _ = run(capsys, "jump", "--alpha", "0.5", "--x", "2")
        assert code == 0
        rec = json.loads(out)
        want = 2.0 * math.pi / math.gamma(0.5) * math.log(2.0) ** (-0.5)
        assert rec["jump"]["im"] == pytest.approx(want, rel=1e-6)
        assert rec["difference"] < 1e-8

    def test_x_inside_disk_rejected(self, capsys):
        code, _, _ = run(capsys, "jump", "--alpha", "0.5", "--x", "0.5")
        assert code == 2


class TestTableCommand:
    def test_csv_header_and_shape(self, capsys):
        # ranges starting with a minus need the = form or argparse
        # reads them as flags
        code, out, _ = run(
            capsys,
            "table", "--alpha", "0.5", "--z-re=-0.5:0.5:3", "--z-im=-0.5:0.5:3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z_re,z_im,val_re,val_im,err,method"
        assert len(lines) == 10

    def test_skip_rows_keep_shape(self, capsys):
        # the grid passes through z = 0 and across the cut at z = 2
        code, out, _ = run(
            capsys, "table", "--alpha", "0.5", "--z-re", "0:2:3", "--z-im", "0:0:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0][5] == "AtBranchPoint" and rows[0][2] == ""
        assert rows[1][5] == "AtBranchPoint"  # z = 1
        assert rows[2][5] == "OnBranchCut"

    def test_json_lines_format(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--alpha", "0.5", "--z-re", "0.1:0.3:2", "--z-im", "0:0:1",
            "--format", "json",
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) == 2
        assert all(r["method"] == "Series" for r in recs)

    def test_real_axis_rows_stay_real_at_negative_order(self, capsys):
        code, out, _ = run(
            capsys, "table", "--alpha=-0.5", "--z-re=-0.9:0.9:11", "--z-im", "0:0:1"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 11
        for row in rows:
            z_re = float(row[0])
            if row[2] == "":
                # only the branch point at the origin may be skipped (the
                # grid midpoint lands within one ulp of zero)
                assert abs(z_re) < 1e-12 and row[5] == "AtBranchPoint"
            elif 0.0 < z_re < 1.0:
                assert abs(float(row[3])) < 1e-10, f"Im at z={z_re} is {row[3]}"


    @pytest.mark.parametrize("alpha", ["0.5", "2.8", "6.5", "-0.5", "1", "0.3+0.7i"])
    @pytest.mark.parametrize("grid", [("-40:40:9", "-30:30:5"), ("-1:2:7", "-0.5:0.5:3")])
    def test_rows_are_bitwise_eval_auto(self, capsys, alpha, grid):
        # 2.8 is admitted to Jonquiere's relation for |Log z| <= 3.2 only and
        # 6.5 nowhere, so the grids mix batched rows, per-point rows and skips
        code, out, _ = run(capsys, "table", f"--alpha={alpha}", f"--z-re={grid[0]}", f"--z-im={grid[1]}")
        assert code == 0
        a = Order.of(parse_complex(alpha))
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == int(grid[0].rsplit(":", 1)[1]) * int(grid[1].rsplit(":", 1)[1])
        for row in rows:
            z = complex(float(row[0]), float(row[1]))
            try:
                want = eval_auto(a, z)
            except FracpolylogError as exc:
                assert row[2:5] == ["", "", ""] and row[5] == _skip_reason(exc)
                continue
            got = (complex(float(row[2]), float(row[3])), float(row[4]), row[5])
            assert got == (want.value, want.err_estimate, want.method), row


class TestSelfcheckCommand:
    def test_summary_exit_zero(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--filter", "kernel/")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--filter", "kernel/zeta", "--json")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert recs and all(r["passed"] for r in recs)
        assert all(r["name"].startswith("kernel/zeta") for r in recs)

    def test_filter_without_match_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "selfcheck", "--filter", "no-such-check")
        assert code == 1


class TestUsage:
    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "eval", "--alpha", "0.5")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1
