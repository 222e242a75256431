import hashlib
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
    _table_text,
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


# SHA-256 of every file the CLI writes for fixed invocations.  A change of the
# writer or of the numbers it writes changes these digests.
_GOLDEN_GRID_ARGS = ["wigner-grid", "--bar-n", "1", "--n", "0.5", "--resolution", "51"]
_GOLDEN_CURVE_ARGS = ["pnw-curve", "--bar-n", "0", "0.42857142857142855", "1", "--steps", "11"]


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class TestGoldenOutput:
    def test_wigner_grid_csv_three_decay_times(self, tmp_path):
        gamma_ts = ["--gamma-t", "0", "0.2", f"{GAMMA_T_C_HALF:.10f}"]
        assert main(_GOLDEN_GRID_ARGS + gamma_ts + ["--out", str(tmp_path / "g.csv")]) == EXIT_OK
        assert _digests(tmp_path) == {
            "g-00.csv": "ad43508872c64ea871da39e1baa22936df0783239fadae0f77415f8c715a7839",
            "g-00.csv.meta.json": "eb5e5b5b03453b9d908f2f4e4d7b2911be3b6c5d70ccfdeb780b8a5df3b6e49c",
            "g-01.csv": "c449ee678d0112ab629d16acd44bde51b508af54b5fc30717c3d14e32723a891",
            "g-01.csv.meta.json": "d76b60188a6b30cc81ed059b208b07d98a17b7477daebd1556313739b0ec14f1",
            "g-02.csv": "09dc941e7902e0521e63fdabf7f16fbe39cd63d761bd7bdb991106a11ceef369",
            "g-02.csv.meta.json": "249ce8226d521a230c4ee195c79fbdce3ee87efeefce4f784b572b30fcc0e17f",
        }

    def test_wigner_grid_jsonl(self, tmp_path):
        argv = _GOLDEN_GRID_ARGS + ["--gamma-t", "0.3", "--format", "jsonl"]
        assert main(argv + ["--out", str(tmp_path / "g.jsonl")]) == EXIT_OK
        assert _digests(tmp_path) == {
            "g.jsonl": "b68383d7c65fa4e27c66c04753ef4d23c241b702892dd6fbda603da1585ff66d",
            "g.jsonl.meta.json": "0f864f02b082949401cd86e9529dc305ed433fc5fab3977e36e27d884c62cb76",
        }

    @pytest.mark.parametrize(
        "fmt, with_numeric, expected",
        [
            (
                "csv", False, {
                    "c.csv": "d07c63c1c68c8abe94409341d769c988391e2cfc68d56e5dbc27e749cbed3de1",
                    "c.csv.meta.json": "d22bfb9a73e0316f9ba34828ca25f44a6cbdfb3ad8604dab70420382020b4c41",
                },
            ),
            (
                "csv", True, {
                    "c.csv": "b6e20e71e77cb2b90b951e7c6227d4ee71a94c1e6f56447bc9b1b6dc924225b2",
                    "c.csv.meta.json": "afd8d65106a578d73748a68bdc8e4c936556e7282bdcea7f8039b8dfc0efdd57",
                },
            ),
            (
                "jsonl", False, {
                    "c.jsonl": "980cc1cce021420b0bce5960da6b7f9c85d7157984f24b6f9d2453ba7adeb7e9",
                    "c.jsonl.meta.json": "bc3445e8987cbf510a3f01395c3bb8d942dfcd138a499121fe5574c5899a6c94",
                },
            ),
            (
                "jsonl", True, {
                    "c.jsonl": "d7a7c71e4176d44887c33717ba319be2e5a72a139056c23db8a5493b4a142278",
                    "c.jsonl.meta.json": "fadfa8e73a7a77c3abcb50f01e0798524b78bb5e57f547562432f81dad95246a",
                },
            ),
        ],
    )
    def test_pnw_curve(self, tmp_path, fmt, with_numeric, expected):
        argv = _GOLDEN_CURVE_ARGS + ["--format", fmt, "--out", str(tmp_path / f"c.{fmt}")]
        if with_numeric:
            argv.append("--with-numeric")
        assert main(argv) == EXIT_OK
        assert _digests(tmp_path) == expected


def test_table_writer_matches_per_value_encoders():
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, None, 0.1]
    axis = np.array([1.5, -0.0])
    columns = {"x": axis[:, None], "v": np.array(values, dtype=object)[None, :]}
    rows = [(x, v) for x in axis.tolist() for v in values]

    csv = _table_text(columns, "csv", {"kind": "test"})
    expected = ["x,v\n"] + [f"{x:.17g},{'' if v is None else f'{v:.17g}'}\n" for x, v in rows]
    assert csv == "".join(expected)

    jsonl = _table_text(columns, "jsonl", {"kind": "test"})
    expected = [{"kind": "test"}] + [{"x": x, "v": v} for x, v in rows]
    assert jsonl == "".join(json.dumps(r, sort_keys=True) + "\n" for r in expected)
