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
        with pytest.raises(SystemExit) as excinfo:
            main(["pnw-curve", "--steps", "1", "--out", str(tmp_path / "c.csv")])
        assert excinfo.value.code == EXIT_USAGE


class TestThresholdCommand:
    def test_writes_to_stdout_by_default(self, capsys):
        code = main(["threshold", "--n", "0.5", "--bar-n", "1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["kind"] == "threshold-report"
        assert json.loads(lines[1])["residual"] < 1e-8

    def test_header_records_the_fixed_bisection_tolerance(self, capsys):
        assert main(["threshold", "--n", "0.5", "--bar-n", "1"]) == EXIT_OK
        header = json.loads(capsys.readouterr().out.splitlines()[0])
        assert header["parameters"] == {"n": [0.5], "bar_n": [1.0]}
        assert header["tolerances"] == {"bisection_half_width": 1e-10}

    def test_thresholds_suite_header_records_the_same_bisection_tolerance(self, capsys):
        assert main(["verify", "--suite", "thresholds"]) == EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines(keepends=True)
        assert json.loads(header)["tolerances"] == {"residual": 1e-8, "bisection_half_width": 1e-10}
        # recording the half-width changes the header only; the rows' bytes are pinned
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        assert digest == "fc1e4a845d07bbcda055c328a7a5f1429f733c499d370068bc894e504771b171"

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
        assert records[0]["parameters"] == {"suite": "thresholds"}  # no seed
        assert all(r["passed"] for r in records[1:])

    def test_oracles_suite_passes(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--suite", "oracles", "--out", str(out)])
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["parameters"] == {"suite": "oracles"}  # no seed
        checks = {r["check"]: r for r in records[1:]}
        # pinned bitwise: a change to any of the three routes shows here
        assert {name: row["linf"] for name, row in checks.items()} == {
            "closed-vs-convolution": 1.5264127462000232e-10,
            "closed-vs-fokker-planck": 4.0146763210640105e-05,
            "closed-vs-fock-basis": 1.9040498344669032e-12,
        }
        assert {name: row["tol"] for name, row in checks.items()} == {
            "closed-vs-convolution": 1e-8,
            "closed-vs-fokker-planck": 1e-3,
            "closed-vs-fock-basis": 1e-6,
        }

    def test_fokker_planck_mass_loss_exits_three(self, monkeypatch, tmp_path, capsys):
        import thermalwigner.channel as channel_module

        # the oracle grid drifts by about 1e-10; a zero bound rejects it
        monkeypatch.setattr(channel_module, "EDGE_MASS_LOSS_BOUND", 0.0)
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "oracles", "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("thermal-wigner verify: error: Fokker-Planck boundary mass loss")
        assert "enlarge the grid extent" in err
        assert "drift=" in err and "q_extent=(-6.0, 6.0)" in err
        assert not out.exists()

    def test_theorem_seed_draws_other_states(self, tmp_path):
        rows = {}
        for seed in (1, 2):
            out = tmp_path / f"theorem-{seed}.jsonl"
            argv = ["verify", "--suite", "theorem", "--seed", str(seed), "--out", str(out)]
            assert main(argv) == EXIT_OK
            header, *rows[seed] = [json.loads(line) for line in out.read_text().splitlines()]
            assert header["parameters"] == {"suite": "theorem", "seed": seed}
        assert rows[1] != rows[2]
        assert rows[2][0]["seed"] == 2

    def test_theorem_seed_defaults_to_one(self, capsys):
        assert main(["verify", "--suite", "theorem"]) == EXIT_OK
        header = json.loads(capsys.readouterr().out.splitlines()[0])
        assert header["parameters"] == {"suite": "theorem", "seed": 1}

    @pytest.mark.parametrize("suite", ["oracles", "thresholds"])
    def test_seed_rejected_where_it_has_no_effect(self, suite, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        argv = ["verify", "--suite", suite, "--seed", "2", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("thermal-wigner verify: error: ")
        assert "--seed" in err
        assert err.count("\n") == 1  # one line, no traceback
        assert not out.exists()

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

        def failing_runner():
            return [{"check": "synthetic-regression", "passed": False}]

        _, tolerances, seeded = cli_module.VERIFY_SUITES["thresholds"]
        monkeypatch.setitem(
            cli_module.VERIFY_SUITES, "thresholds", (failing_runner, tolerances, seeded)
        )
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
    ],
)
def test_invalid_parameter_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"thermal-wigner {argv[0]}: error: ")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner-grid", "--bar-n", "1e103", "--gamma-t", "0.1", "--resolution", "5", "--out"],
        ["pnw-curve", "--bar-n", "1e103", "--steps", "3", "--with-numeric"],
        # xi^3 is finite but pi xi^3 is inf: an error, not a table of zeros
        ["wigner-grid", "--bar-n", "2.5e102", "--gamma-t", "0.1", "--resolution", "5", "--out"],
        ["pnw-curve", "--bar-n", "2.5e102", "--with-numeric"],
    ],
)
def test_float_overflow_exits_three(argv, tmp_path, capsys):
    # pi xi^3 in the evolved closed form overflows at these seed occupancies
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "g.csv")]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"thermal-wigner {argv[0]}: error: float overflow")
    assert err.count("\n") == 1  # one line, no traceback


def test_threshold_at_large_channel_occupancy(capsys):
    # kappa's unfactored three-term form cancels at this n and loses the bracket
    assert main(["threshold", "--n", "1e8"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out.splitlines()[1])
    assert row["residual"] < 1e-10


def test_threshold_at_huge_seed_occupancy(capsys):
    assert main(["threshold", "--n", "0.5", "--bar-n", "1e103"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out.splitlines()[1])
    assert row["residual"] < 1e-9


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
            "g-00.csv.meta.json": "e29107e1e8df1781b2795ea66d0ed7e0b963b6654ac678f71041632ca608e6d2",
            "g-01.csv": "d344549478596144c2dbfad5a5d780603a9ddf007dbe9965f7cdccec19126b3f",
            "g-01.csv.meta.json": "16da8348a4f0913b8f0e9de969c0c3e0a7653a10503afc0ee7281e08bf7d7bfa",
            "g-02.csv": "693149bfb9fe6bf67e6f503bd91008cdb391969afedc62e99149629b6e94b606",
            "g-02.csv.meta.json": "71af96fc1fd467e9d5fb93ea160f2792111a74abd42b0ed0ee3bc72fbda3a6f4",
        }

    def test_wigner_grid_jsonl(self, tmp_path):
        argv = _GOLDEN_GRID_ARGS + ["--gamma-t", "0.3", "--format", "jsonl"]
        assert main(argv + ["--out", str(tmp_path / "g.jsonl")]) == EXIT_OK
        assert _digests(tmp_path) == {
            "g.jsonl": "a8008776e33f9a6f33991f619c9dd2d02e164e65d0d4cf41714a42170f80476f",
            "g.jsonl.meta.json": "e54b012a1ce9c64c5a5ce7c35203f0cf6ee7147f1d536bfd31a4e743f393c0ae",
        }

    @pytest.mark.parametrize(
        "fmt, with_numeric, expected",
        [
            (
                "csv", False, {
                    "c.csv": "fd5c97511a5c3614fe8a2acb0ed3254663c8a5ba6d2f765b4f4cd9105ee4213e",
                    "c.csv.meta.json": "d22bfb9a73e0316f9ba34828ca25f44a6cbdfb3ad8604dab70420382020b4c41",
                },
            ),
            (
                "csv", True, {
                    "c.csv": "d9c29aafb59d7fcd17ac8769fd8d27c1aac00cc18a134a50e98f1c02cdc9dbf6",
                    "c.csv.meta.json": "afd8d65106a578d73748a68bdc8e4c936556e7282bdcea7f8039b8dfc0efdd57",
                },
            ),
            (
                "jsonl", False, {
                    "c.jsonl": "9f1342bd37a726a7f824c8477885a38811e4dc7487b3c6e0b65039ae802b7356",
                    "c.jsonl.meta.json": "bc3445e8987cbf510a3f01395c3bb8d942dfcd138a499121fe5574c5899a6c94",
                },
            ),
            (
                "jsonl", True, {
                    "c.jsonl": "70887d77c179b4d466f770eb5e4db3c4c2d681b0c6dd183e0d046eee665c4a68",
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
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1]
    axis = np.array([1.5, -0.0])
    columns = {"x": axis[:, None], "v": np.array(values)[None, :], "m": None}
    rows = [(x, v) for x in axis.tolist() for v in values]

    csv = _table_text(columns, "csv", {"kind": "test"})
    expected = ["x,v,m\n"] + [f"{x:.17g},{v:.17g},\n" for x, v in rows]
    assert csv == "".join(expected)

    jsonl = _table_text(columns, "jsonl", {"kind": "test"})
    expected = [{"kind": "test"}] + [{"x": x, "v": v, "m": None} for x, v in rows]
    assert jsonl == "".join(json.dumps(r, sort_keys=True) + "\n" for r in expected)
