import json
import math

import numpy as np
import pytest

from thermalwigner import NonConvergenceError
from thermalwigner.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)

GAMMA_T_C_HALF = 0.4054651081081644  # ln(3/2)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestWignerGridCommand:
    def test_smallest_grid_has_four_rows(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["wigner-grid", "--bar-n", "1", "--gamma-t", "0", "--resolution", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["q", "p", "w"]
        assert len(rows) == 4

    def test_three_decay_times_make_three_grids(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = main(
            [
                "wigner-grid",
                "--bar-n", "1",
                "--n", "0.5",
                "--gamma-t", "0", "0.2", f"{GAMMA_T_C_HALF:.10f}",
                "--resolution", "101",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        sidecars = sorted(tmp_path.glob("fig1-*.csv.meta.json"))
        assert len(sidecars) == 3
        metas = [json.loads(s.read_text()) for s in sidecars]
        # at gt = 0 the minimum is the origin value -2/(9 pi)
        assert metas[0]["w_min"] == pytest.approx(-2.0 / (9.0 * math.pi), abs=1e-9)
        # near the threshold the negativity is gone to within the grid tolerance
        assert metas[2]["w_min"] >= -1e-6
        for meta, gt in zip(metas, (0.0, 0.2, float(f"{GAMMA_T_C_HALF:.10f}"))):
            assert meta["parameters"]["gamma_t"] == pytest.approx(gt, abs=1e-12)
            assert meta["version"]

    def test_jsonl_format_carries_header(self, tmp_path):
        out = tmp_path / "grid.jsonl"
        code = main(
            [
                "wigner-grid",
                "--bar-n", "0",
                "--gamma-t", "0",
                "--resolution", "2",
                "--format", "jsonl",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["kind"] == "wigner-grid"
        assert len(records) == 5
        assert {"q", "p", "w"} <= set(records[1])

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "wigner-grid",
            "--bar-n", "1",
            "--n", "0.5",
            "--gamma-t", "0.2",
            "--resolution", "41",
            "--out",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + [str(out_a)]) == EXIT_OK
        assert main(args + [str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        meta_a = (tmp_path / "a.csv.meta.json").read_text()
        meta_b = (tmp_path / "b.csv.meta.json").read_text()
        assert meta_a == meta_b

    def test_io_failure_exits_two(self, tmp_path):
        out = tmp_path / "missing-dir" / "grid.csv"
        code = main(["wigner-grid", "--bar-n", "1", "--gamma-t", "0", "--out", str(out)])
        assert code == EXIT_IO

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["wigner-grid", "--gamma-t", "0", "--out", "x.csv"])
        assert excinfo.value.code == EXIT_USAGE

    def test_single_point_resolution_is_usage_error(self, tmp_path):
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "wigner-grid",
                    "--bar-n", "1",
                    "--gamma-t", "0",
                    "--resolution", "1",
                    "--out", str(out),
                ]
            )
        assert excinfo.value.code == EXIT_USAGE
        assert not out.exists()


class TestPnwCurveCommand:
    def test_loss_channel_curve_starts_at_golden_value(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["pnw-curve", "--bar-n", "0", "--n", "0", "--steps", "8", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["gamma_t", "bar_n", "pnw_analytic", "pnw_numeric"]
        assert float(rows[0][2]) == pytest.approx(2.0 * math.exp(-0.5) - 1.0, abs=1e-9)
        assert rows[0][3] == ""  # numeric column not requested

    def test_curves_share_the_threshold_zero(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "pnw-curve",
                "--bar-n", "0", "0.42857142857142855", "1",
                "--n", "0.5",
                "--steps", "201",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        by_seed = {}
        for gt, bar_n, vol, _ in rows:
            by_seed.setdefault(float(bar_n), []).append((float(gt), float(vol)))
        for bar_n, series in by_seed.items():
            vanished = [gt for gt, vol in series if vol == 0.0]
            assert vanished, f"curve for bar_n={bar_n} never reaches zero"
            step = series[1][0] - series[0][0]
            assert abs(min(vanished) - math.log(1.5)) <= step + 1e-12
            values = [vol for _, vol in series]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_ordering_by_seed_occupancy_at_time_zero(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["pnw-curve", "--n", "0.5", "--steps", "5", "--out", str(out)])
        _, rows = read_csv(out)
        at_zero = {float(r[1]): float(r[2]) for r in rows if float(r[0]) == 0.0}
        assert at_zero[0.0] > at_zero[3.0 / 7.0] > at_zero[1.0]

    def test_numeric_column_when_requested(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "pnw-curve",
                "--bar-n", "1",
                "--n", "0.5",
                "--steps", "3",
                "--with-numeric",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][3]) == pytest.approx(float(rows[0][2]), abs=1e-5)

    def test_non_convergence_exits_three_with_diagnostics(self, monkeypatch, capsys):
        import thermalwigner.cli as cli_module

        def failing_pnw_radial(*_args, **_kwargs):
            raise NonConvergenceError("synthetic quadrature failure", error_estimate=0.5)

        monkeypatch.setattr(cli_module, "pnw_radial", failing_pnw_radial)
        code = main(["pnw-curve", "--steps", "2", "--with-numeric"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("thermal-wigner pnw-curve: error: synthetic quadrature failure")
        assert "error_estimate=0.5" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_too_few_steps_is_usage_error(self, tmp_path, capsys):
        code = main(["pnw-curve", "--steps", "1", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE


class TestThresholdCommand:
    def test_writes_to_stdout_by_default(self, capsys):
        code = main(["threshold", "--n", "0.5", "--bar-n", "1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["kind"] == "threshold-report"
        assert json.loads(lines[1])["residual"] < 1e-8

    def test_reports_match_the_law(self, tmp_path):
        out = tmp_path / "thresholds.jsonl"
        code = main(["threshold", "--n", "0", "0.5", "--bar-n", "0", "1", "--out", str(out)])
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["kind"] == "threshold-report"
        for row in records[1:]:
            expected = math.log((2.0 + 2.0 * row["n"]) / (1.0 + 2.0 * row["n"]))
            assert row["gamma_t_c_analytic"] == pytest.approx(expected, abs=1e-15)
            assert row["residual"] < 1e-8


class TestVerifyCommand:
    def test_thresholds_suite_passes(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--suite", "thresholds", "--out", str(out)])
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["parameters"]["suite"] == "thresholds"
        assert all(r["passed"] for r in records[1:])

    def test_oracles_suite_passes(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--suite", "oracles", "--out", str(out)])
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        checks = {r["check"]: r for r in records[1:]}
        assert checks["closed-vs-convolution"]["linf"] < 1e-8
        assert checks["closed-vs-fokker-planck"]["linf"] < 1e-3
        assert checks["closed-vs-fock-basis"]["linf"] < 1e-6

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "unknown"])
        assert excinfo.value.code == EXIT_USAGE

    def test_verify_reruns_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["verify", "--suite", "thresholds", "--out", str(out_a)]) == EXIT_OK
        assert main(["verify", "--suite", "thresholds", "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_failure_exits_one_and_serializes_the_case(self, tmp_path, monkeypatch, capsys):
        import thermalwigner.cli as cli_module

        def failing_runner(_seed):
            return [{"check": "synthetic-regression", "passed": False}], False

        monkeypatch.setitem(cli_module._VERIFY_RUNNERS, "thresholds", failing_runner)
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--suite", "thresholds", "--out", str(out)])
        assert code == EXIT_VERIFY_FAILED
        assert "synthetic-regression" in capsys.readouterr().err
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[1]["passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--n", "-1"],
        ["pnw-curve", "--n", "nan"],
        ["threshold", "--tol", "0"],
    ],
)
def test_invalid_parameter_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"thermal-wigner {argv[0]}: error: ")
    assert err.count("\n") == 1  # one line, no traceback


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_IO, EXIT_NUMERICAL, EXIT_USAGE) == (0, 1, 2, 3, 64)
