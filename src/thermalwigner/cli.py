"""Command-line front end.

Subcommands export phase-space grids and negativity curves as CSV/JSONL and
run the verification suites.  Every output file carries the full parameter
set: CSV files get a ``<name>.meta.json`` sidecar, JSONL files start with a
header object.  Identical invocations produce byte-identical output.

Grids and curves are written column by column (:func:`_table_text`): CSV
values are ``%.17g``, JSONL values are json's own float encoding, and each
distinct value of a column is formatted once.

Exit codes: 0 success, 1 verification failure, 2 I/O error, 3 numerical
non-convergence, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import convolve_evolve, fokker_planck_evolve
from .errors import NonConvergenceError
from .negativity import pnw_radial, pnw_spats_analytic
from .states import ChannelParams, evolve_fock_diagonal, random_zero_vacuum_state, spats_weights
from .threshold import (
    TOL_MIN,
    TOL_ORIGIN,
    TOL_Q,
    threshold_numeric_spats,
    threshold_spats,
    verify_zero_vacuum_theorem,
)
from .wigner import (
    DEFAULT_GRID_POINTS,
    _spats_evolved_evaluator,
    default_extent,
    eval_fock_diagonal_wigner,
    eval_spats_wigner_evolved,
    eval_spats_wigner_initial,
    sample_grid,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

VERIFY_SUITES = ("oracles", "theorem", "thresholds")

_ORACLE_TOLS = {"convolution": 1e-8, "fokker-planck": 1e-3, "fock-basis": 1e-6}
_THRESHOLD_RESIDUAL_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _grid_points(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _jsonl_text(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _csv_floats(values: list[float]) -> list[str]:
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _json_floats(values: list[float]) -> list[str]:
    return json.dumps(values)[1:-1].split(", ")


# per format: (encoder of a list of floats, text of a missing value)
_ENCODINGS = {"csv": (_csv_floats, ""), "jsonl": (_json_floats, "null")}


def _encode_column(column, fmt: str) -> np.ndarray:
    """Object array of the encoded values of ``column``, in its shape.

    Each bitwise-distinct float is encoded once, so -0.0 and 0.0 keep their
    own text; ``None`` elements become the format's missing value.
    """
    encode, missing_text = _ENCODINGS[fmt]
    column = np.asarray(column)
    missing = np.equal(column, None) if column.dtype == object else np.zeros(column.shape, bool)
    values = np.where(missing, 0.0, column).astype(float).reshape(-1)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = np.array(encode(bits.view(float).tolist()), dtype=object)
    text = distinct[inverse].reshape(column.shape)
    text[missing] = missing_text
    return text


def _table_text(columns: dict, fmt: str, header: dict) -> str:
    """CSV or JSONL text of a table given column by column.

    Columns are float arrays (``None`` marks a missing value) that broadcast
    against each other; the rows run over the broadcast shape in C order, so
    an axis passed as ``q[:, None]`` is encoded once per value, not once per
    row.  CSV writes ``%.17g`` after a line of column names; JSONL writes
    ``header`` and then one object per row with json's own float encoding
    and sorted keys, byte for byte what ``json.dumps(row, sort_keys=True)``
    writes.
    """
    names = list(columns) if fmt == "csv" else sorted(columns)
    encoded = [_encode_column(columns[name], fmt) for name in names]
    shape = np.broadcast_shapes(*(e.shape for e in encoded))
    cells = np.stack([np.broadcast_to(e, shape) for e in encoded], axis=-1)
    if fmt == "csv":
        head = ",".join(names) + "\n"
        row = ",".join(["%s"] * len(names)) + "\n"
    else:
        head = _jsonl_text([header])
        row = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in names) + "}\n"
    return head + row * math.prod(shape) % tuple(cells.reshape(-1).tolist())


def _sidecar_path(out: str) -> str:
    return out + ".meta.json"


def _write_sidecar(out: str, meta: dict) -> None:
    meta = {"tool": "thermal-wigner", "version": __version__, **meta}
    Path(_sidecar_path(out)).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def _header_record(kind: str, parameters: dict, tolerances: dict | None = None) -> dict:
    record = {
        "kind": kind,
        "tool": "thermal-wigner",
        "version": __version__,
        "parameters": parameters,
    }
    if tolerances is not None:
        record["tolerances"] = tolerances
    return record


def _grid_out_path(out: str, index: int, count: int) -> str:
    if count == 1:
        return out
    path = Path(out)
    return str(path.with_name(f"{path.stem}-{index:02d}{path.suffix}"))


def cmd_wigner_grid(args) -> int:
    """One grid of the evolved SPATS Wigner function per decay time.

    Each grid is written as the table (q, p, w) with rows in row-major q
    order: the q and p axes go to the writer as broadcast columns, so each
    axis value is formatted once.  A CSV grid gets a sidecar with the extents,
    the extreme values and the trapezoid integral; so does a JSONL grid, whose
    first line is the header record.
    """
    extent = args.extent if args.extent is not None else default_extent(args.bar_n, args.n)
    count = len(args.gamma_t)
    for index, gamma_t in enumerate(args.gamma_t):
        channel = ChannelParams(args.n, gamma_t)
        grid = sample_grid(
            lambda q, p: eval_spats_wigner_evolved(q, p, channel, args.bar_n),
            -extent,
            extent,
            -extent,
            extent,
            args.resolution,
            args.resolution,
        )
        out = _grid_out_path(args.out, index, count)
        parameters = {
            "bar_n": args.bar_n,
            "n": args.n,
            "gamma_t": gamma_t,
            "extent": extent,
            "resolution": args.resolution,
            "format": args.format,
        }
        columns = {"q": grid.q_axis[:, None], "p": grid.p_axis[None, :], "w": grid.values}
        header = _header_record("wigner-grid", parameters)
        _write_text(out, _table_text(columns, args.format, header))
        _write_sidecar(
            out,
            {
                "command": "wigner-grid",
                "parameters": parameters,
                "extents": {
                    "q_min": grid.q_min,
                    "q_max": grid.q_max,
                    "p_min": grid.p_min,
                    "p_max": grid.p_max,
                    "n_q": grid.n_q,
                    "n_p": grid.n_p,
                },
                "w_min": float(grid.values.min()),
                "w_max": float(grid.values.max()),
                "trapezoid_integral": grid.trapezoid_integral(),
                "cell_area": grid.cell_area,
            },
        )
    return EXIT_OK


def cmd_pnw_curve(args) -> int:
    gamma_t_max = args.gamma_t if args.gamma_t is not None else 1.2 * threshold_spats(args.n)
    lattice = np.linspace(0.0, gamma_t_max, args.steps)
    shape = (len(args.bar_n), args.steps)
    analytic = np.empty(shape)
    numeric = np.empty(shape) if args.with_numeric else None
    for i, bar_n in enumerate(args.bar_n):
        for j, gamma_t in enumerate(lattice):
            channel = ChannelParams(args.n, float(gamma_t))
            analytic[i, j] = pnw_spats_analytic(channel, bar_n).volume
            if args.with_numeric:
                evaluate = _spats_evolved_evaluator(channel, bar_n)
                numeric[i, j] = pnw_radial(
                    lambda r: evaluate(r, 0.0),
                    default_extent(bar_n, args.n),
                    abs_tol=1e-8,
                ).volume
    parameters = {
        "bar_n": list(args.bar_n),
        "n": args.n,
        "gamma_t_max": gamma_t_max,
        "steps": args.steps,
        "with_numeric": args.with_numeric,
        "format": args.format,
    }
    columns = {
        "gamma_t": lattice[None, :],
        "bar_n": np.array(args.bar_n)[:, None],
        "pnw_analytic": analytic,
        "pnw_numeric": numeric,
    }
    header = _header_record("pnw-curve", parameters)
    _write_text(args.out, _table_text(columns, args.format, header))
    if args.out is not None:
        _write_sidecar(args.out, {"command": "pnw-curve", "parameters": parameters})
    return EXIT_OK


def cmd_threshold(args) -> int:
    records = [
        _header_record(
            "threshold-report",
            {"n": list(args.n), "bar_n": list(args.bar_n), "tol": args.tol},
        )
    ]
    for n in args.n:
        for bar_n in args.bar_n:
            report = threshold_numeric_spats(n, bar_n, tol=args.tol)
            records.append({"n": n, "bar_n": bar_n, **report.to_json_dict()})
    _write_text(args.out, _jsonl_text(records))
    return EXIT_OK


def _verify_oracles(_seed: int) -> tuple[list[dict], bool]:
    """Four-route agreement for the SPATS bar_n=1 in the n=0.5 channel at gt=0.3."""
    bar_n, n, gamma_t = 1.0, 0.5, 0.3
    channel = ChannelParams(n, gamma_t)

    def closed(q, p):
        return eval_spats_wigner_evolved(q, p, channel, bar_n)

    def initial(q, p):
        return eval_spats_wigner_initial(q, p, bar_n)

    rows = []

    axis = np.linspace(-5.0, 5.0, 11)
    conv_err = max(
        abs(convolve_evolve(initial, channel, q, p) - float(closed(q, p)))
        for q in axis
        for p in axis
    )
    rows.append({"check": "closed-vs-convolution", "linf": conv_err})

    grid0 = sample_grid(initial, -6.0, 6.0, -6.0, 6.0, 241, 241)
    fd = fokker_planck_evolve(grid0, channel)
    qq, pp = np.meshgrid(fd.q_axis, fd.p_axis, indexing="ij")
    exact = closed(qq, pp)
    rows.append({"check": "closed-vs-fokker-planck", "linf": float(np.max(np.abs(fd.values - exact)))})

    evolved = evolve_fock_diagonal(spats_weights(bar_n), channel, step_tol=1e-11)
    fock = eval_fock_diagonal_wigner(qq, pp, evolved)
    rows.append({"check": "closed-vs-fock-basis", "linf": float(np.max(np.abs(fock - exact)))})

    tols = (_ORACLE_TOLS["convolution"], _ORACLE_TOLS["fokker-planck"], _ORACLE_TOLS["fock-basis"])
    all_passed = True
    for row, tol in zip(rows, tols):
        row["tol"] = tol
        row["passed"] = row["linf"] < tol
        all_passed &= row["passed"]
    return rows, all_passed


def _verify_theorem(seed: int) -> tuple[list[dict], bool]:
    """Zero-vacuum theorem over 50 random states and three channel settings."""
    rows = []
    all_passed = True
    for offset in range(50):
        state_seed = seed + offset
        state = random_zero_vacuum_state(state_seed, cutoff=12)
        for n in (0.0, 0.5, 1.0):
            report = verify_zero_vacuum_theorem(state, n, state_id=f"seed-{state_seed}")
            row = {"seed": state_seed, **report.to_json_dict()}
            if not report.passed:
                # preserve the counterexample for regression
                row["weights"] = [float(w) for w in state.weights]
            rows.append(row)
            all_passed &= report.passed
    return rows, all_passed


def _verify_thresholds(_seed: int) -> tuple[list[dict], bool]:
    """Numeric thresholds match the law and are independent of the seed bar_n."""
    rows = []
    all_passed = True
    for n in (0.0, 0.5, 1.0, 2.0):
        numeric = []
        for bar_n in (0.0, 3.0 / 7.0, 1.0, 10.0):
            report = threshold_numeric_spats(n, bar_n, tol=1e-10)
            passed = report.residual < _THRESHOLD_RESIDUAL_TOL
            rows.append(
                {"n": n, "bar_n": bar_n, **report.to_json_dict(), "passed": passed}
            )
            numeric.append(report.gamma_t_c_numeric)
            all_passed &= passed
        spread = max(numeric) - min(numeric)
        spread_ok = spread < _THRESHOLD_RESIDUAL_TOL
        rows.append({"n": n, "check": "bar-n-independence", "spread": spread, "passed": spread_ok})
        all_passed &= spread_ok
    return rows, all_passed


_VERIFY_RUNNERS = {
    "oracles": _verify_oracles,
    "theorem": _verify_theorem,
    "thresholds": _verify_thresholds,
}

_SUITE_TOLERANCES = {
    "oracles": _ORACLE_TOLS,
    "theorem": {"tol_origin": TOL_ORIGIN, "tol_min": TOL_MIN, "tol_q": TOL_Q},
    "thresholds": {"residual": _THRESHOLD_RESIDUAL_TOL},
}


def cmd_verify(args) -> int:
    runner = _VERIFY_RUNNERS[args.suite]
    rows, all_passed = runner(args.seed)
    tolerances = _SUITE_TOLERANCES[args.suite]
    records = [
        _header_record(
            "verify-report",
            {"suite": args.suite, "seed": args.seed},
            tolerances=tolerances,
        )
    ]
    records += rows
    _write_text(args.out, _jsonl_text(records))
    if not all_passed:
        failing = [r for r in rows if not r.get("passed", True)]
        print(
            f"verify: suite {args.suite!r} FAILED ({len(failing)} case(s)); "
            f"first: {json.dumps(failing[0], sort_keys=True)}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="thermal-wigner", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("wigner-grid", help="export evolved SPATS Wigner grids")
    grid.add_argument("--bar-n", type=float, required=True, help="thermal seed mean photon number")
    grid.add_argument("--n", type=float, default=0.0, help="channel mean thermal photon number")
    grid.add_argument(
        "--gamma-t", type=float, nargs="+", required=True, help="decay time(s), one grid each"
    )
    grid.add_argument("--extent", type=float, default=None, help="half-width (default: auto)")
    grid.add_argument(
        "--resolution",
        type=_grid_points,
        default=DEFAULT_GRID_POINTS,
        help="points per axis (>= 2)",
    )
    grid.add_argument("--out", required=True, help="output file")
    grid.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    grid.set_defaults(func=cmd_wigner_grid)

    curve = sub.add_parser("pnw-curve", help="negativity volume vs decay time")
    curve.add_argument("--bar-n", type=float, nargs="+", default=[0.0, 3.0 / 7.0, 1.0])
    curve.add_argument("--n", type=float, default=0.5)
    curve.add_argument("--gamma-t", type=float, default=None, help="curve endpoint (default: 1.2 gt_c)")
    curve.add_argument("--steps", type=_grid_points, default=101, help="lattice points (>= 2)")
    curve.add_argument("--with-numeric", action="store_true", help="add the quadrature column")
    curve.add_argument("--out", default=None, help="output file (default: stdout)")
    curve.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    curve.set_defaults(func=cmd_pnw_curve)

    thr = sub.add_parser("threshold", help="analytic vs bisection threshold decay times")
    thr.add_argument("--n", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0])
    thr.add_argument("--bar-n", type=float, nargs="+", default=[1.0])
    thr.add_argument("--tol", type=float, default=1e-10, help="bisection half-width")
    thr.add_argument("--out", default=None, help="output file (default: stdout)")
    thr.set_defaults(func=cmd_threshold)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=VERIFY_SUITES, required=True)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--out", default=None, help="JSONL report (default: stdout)")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"thermal-wigner: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # parameters the parser accepted but the library rejects
        print(f"thermal-wigner {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        # str(exc) carries the failing tolerance and the last estimates
        print(f"thermal-wigner {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
