"""The benchmark's workloads: seeded inputs, one timed operation, its check.

Every workload draws its inputs from ``numpy.random.default_rng(seed)`` with
Latin-hypercube strata (one draw in each of k equal slices of a range, in a
random order), so each seed covers the whole range and the cost of a batch
varies little from seed to seed.  The library receives only the generated
inputs.  Library calls inside ``run`` go through module attributes at call
time, so the tracer's rebinding sees them; evaluators passed into the
library and the closed forms used by the checks are bound here at import,
before any tracing, and never open spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

import thermalwigner as tw
import thermalwigner.cli as tw_cli
from thermalwigner.negativity import pnw_spats_analytic as _pnw_closed
from thermalwigner.wigner import eval_spats_wigner_evolved as _w_closed
from thermalwigner.wigner import eval_spats_wigner_initial as _w_initial

# Tolerances of the CLI's own oracle suite (convolution, Fokker-Planck, Fock basis).
ORACLE_TOLS = {"convolution": 1e-8, "fokker-planck": 1e-3, "fock-basis": 1e-6}
# pnw_numeric stops once two successive resolutions agree within abs_tol; for a
# rule whose error at least halves per doubling the accepted estimate is then
# within abs_tol of the truth.  Near the nodal curve the decrease is slower, so
# the check allows twice that (errors seen on this range reach 1e-4).
NEGATIVITY_ABS_TOL = 1e-4
NEGATIVITY_CHECK_TOL = 2.0 * NEGATIVITY_ABS_TOL
# Radial pnw_numeric in the CLI runs at abs_tol=1e-8.
CURVE_NUMERIC_TOL = 1e-8
THRESHOLD_RESIDUAL_TOL = 1e-8
# CSV/JSONL values carry 17 significant digits and round-trip exactly; the
# check only allows for a different vectorised evaluation order.
GRID_TOL = 1e-12


def strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k draws in [0, 1), one in each of k equal slices, in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


def threshold(n: float) -> float:
    """Closed-form threshold decay time ln((2+2n)/(1+2n))."""
    return math.log((2.0 + 2.0 * n) / (1.0 + 2.0 * n))


def array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def linf(values, expected) -> float:
    return float(np.max(np.abs(np.asarray(values) - np.asarray(expected))))


class Workload:
    """Seeded inputs, untimed preparation, one timed operation and its check."""

    def before(self, case):
        """Untimed step before each execution of ``case``."""


class Theorem(Workload):
    """verify_zero_vacuum_theorem at the CLI defaults (201^2 grid, extent 6)."""

    STATES = 16
    CUTOFFS = (4, 32)
    CHANNEL_N = (0.0, 0.5, 1.0)

    def inputs(self, rng):
        lo, hi = self.CUTOFFS
        cutoffs = lo + np.floor(strata(rng, self.STATES) * (hi - lo + 1)).astype(int)
        seeds = rng.integers(0, 2**31, size=self.STATES)
        return [
            {"state_seed": int(s), "cutoff": int(c), "n": n}
            for s, c in zip(seeds, cutoffs)
            for n in self.CHANNEL_N
        ]

    def prepare(self, spec):
        state = tw.random_zero_vacuum_state(spec["state_seed"], spec["cutoff"])
        return state, spec["n"], f"seed-{spec['state_seed']}"

    def warm_up(self):
        tw.verify_zero_vacuum_theorem(tw.random_zero_vacuum_state(0, 4), 0.0)
    def run(self, case, counted):
        state, n, state_id = case
        return tw.verify_zero_vacuum_theorem(state, n, state_id=state_id)

    def check(self, case, report):
        if report.passed:
            return None
        return f"theorem not confirmed: {json.dumps(report.to_json_dict(), sort_keys=True)}"

    def digest(self, case, report):
        return json.dumps(report.to_json_dict(), sort_keys=True)


def _r(x: float) -> str:
    return repr(float(x))


class Figures(Workload):
    """The README's CLI invocations, run in-process through ``cli.main``."""

    GROUPS = 4
    RESOLUTION = 201

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self._prepared = 0

    def inputs(self, rng):
        g = self.GROUPS
        bar_ns = strata(rng, g)
        ns = 2.0 * strata(rng, g)
        grid_fracs = strata(rng, g)
        jsonl_fracs = 1.2 * strata(rng, g)
        specs = []
        for k in range(g):
            b, n = float(bar_ns[k]), float(ns[k])
            gc = threshold(n)
            curve_bar_n = sorted(float(x) for x in strata(rng, 3))
            threshold_n = sorted(float(x) for x in 2.0 * strata(rng, 4))
            threshold_bar_n = sorted(float(x) for x in 10.0 * strata(rng, 3))
            specs += [
                {"kind": "wigner-grid-csv", "bar_n": b, "n": n,
                 "gamma_t": [0.0, float(grid_fracs[k]) * gc, gc]},
                {"kind": "wigner-grid-jsonl", "bar_n": b, "n": n,
                 "gamma_t": [float(jsonl_fracs[k]) * gc]},
                {"kind": "pnw-curve", "bar_n": curve_bar_n, "n": n, "steps": 201},
                {"kind": "pnw-curve-numeric", "bar_n": curve_bar_n, "n": n, "steps": 101},
                {"kind": "threshold", "n": threshold_n, "bar_n": threshold_bar_n},
            ]
        return specs

    def prepare(self, spec):
        opdir = self.workdir / f"op-{self._prepared:03d}"
        self._prepared += 1
        kind = spec["kind"]
        if kind.startswith("wigner-grid"):
            fmt = "csv" if kind.endswith("csv") else "jsonl"
            out = opdir / f"grid.{fmt}"
            argv = ["wigner-grid", "--bar-n", _r(spec["bar_n"]), "--n", _r(spec["n"]),
                    "--gamma-t", *map(_r, spec["gamma_t"]), "--resolution", str(self.RESOLUTION),
                    "--format", fmt, "--out", str(out)]
        elif kind.startswith("pnw-curve"):
            out = opdir / "curve.csv"
            argv = ["pnw-curve", "--bar-n", *map(_r, spec["bar_n"]), "--n", _r(spec["n"]),
                    "--steps", str(spec["steps"]), "--out", str(out)]
            if kind.endswith("numeric"):
                argv.append("--with-numeric")
        else:
            out = opdir / "thresholds.jsonl"
            argv = ["threshold", "--n", *map(_r, spec["n"]), "--bar-n", *map(_r, spec["bar_n"]),
                    "--out", str(out)]
        return {"spec": spec, "dir": opdir, "out": out, "argv": argv}

    def warm_up(self):
        out = self.workdir / "warm-up" / "grid.csv"
        out.parent.mkdir(parents=True)
        tw_cli.main(["wigner-grid", "--bar-n", "1", "--gamma-t", "0.3", "--resolution", "11",
                     "--out", str(out)])
        shutil.rmtree(out.parent)

    def before(self, case):
        shutil.rmtree(case["dir"], ignore_errors=True)
        case["dir"].mkdir(parents=True)

    def run(self, case, counted):
        return tw_cli.main(case["argv"])

    def _grid_paths(self, case):
        out, count = case["out"], len(case["spec"]["gamma_t"])
        if count == 1:
            return [out]
        return [out.with_name(f"{out.stem}-{i:02d}{out.suffix}") for i in range(count)]

    def check(self, case, code):
        if code != 0:
            return f"exit code {code}"
        spec = case["spec"]
        kind = spec["kind"]
        if kind.startswith("wigner-grid"):
            return self._check_grids(case)
        if kind.startswith("pnw-curve"):
            return self._check_curve(case)
        return self._check_thresholds(case)

    def _check_grids(self, case):
        spec = case["spec"]
        for path, gamma_t in zip(self._grid_paths(case), spec["gamma_t"]):
            sidecar = Path(str(path) + ".meta.json")
            if not sidecar.is_file():
                return f"missing sidecar {sidecar.name}"
            if json.loads(sidecar.read_text())["parameters"]["gamma_t"] != gamma_t:
                return f"sidecar of {path.name} has the wrong gamma_t"
            if path.suffix == ".csv":
                with path.open() as fh:
                    if fh.readline() != "q,p,w\n":
                        return f"{path.name}: bad CSV header"
                    table = np.loadtxt(fh, delimiter=",", ndmin=2)
            else:
                lines = path.read_text().splitlines()
                if json.loads(lines[0]).get("kind") != "wigner-grid":
                    return f"{path.name}: bad JSONL header"
                records = [json.loads(line) for line in lines[1:]]
                table = np.array([[r["q"], r["p"], r["w"]] for r in records])
            if table.shape != (self.RESOLUTION**2, 3):
                return f"{path.name}: {table.shape[0]} rows, expected {self.RESOLUTION**2}"
            channel = tw.ChannelParams(spec["n"], gamma_t)
            err = linf(table[:, 2], _w_closed(table[:, 0], table[:, 1], channel, spec["bar_n"]))
            if not err <= GRID_TOL:
                return f"{path.name}: |w - closed form| = {err:.3e} > {GRID_TOL:g}"
        return None

    def _check_curve(self, case):
        spec = case["spec"]
        if not Path(str(case["out"]) + ".meta.json").is_file():
            return "missing sidecar"
        lines = case["out"].read_text().splitlines()
        if lines[0] != "gamma_t,bar_n,pnw_analytic,pnw_numeric":
            return "bad CSV header"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(spec["bar_n"]) * spec["steps"]:
            return f"{len(rows)} rows, expected {len(spec['bar_n']) * spec['steps']}"
        gc = threshold(spec["n"])
        numeric = spec["kind"].endswith("numeric")
        for gamma_t, _bar_n, analytic, value in rows:
            gamma_t, analytic = float(gamma_t), float(analytic)
            # threshold law: a negative region exists exactly before gamma_t_c
            if gamma_t < gc * (1 - 1e-9) and not analytic > 0.0:
                return f"pnw_analytic = {analytic} at gamma_t {gamma_t} < gamma_t_c {gc}"
            if gamma_t > gc * (1 + 1e-9) and analytic != 0.0:
                return f"pnw_analytic = {analytic} at gamma_t {gamma_t} > gamma_t_c {gc}"
            if numeric and not abs(float(value) - analytic) <= CURVE_NUMERIC_TOL:
                err = abs(float(value) - analytic)
                return f"|pnw_numeric - pnw_analytic| = {err:.3e} at gamma_t {gamma_t}"
            if not numeric and value != "":
                return "pnw_numeric column filled without --with-numeric"
        return None

    def _check_thresholds(self, case):
        spec = case["spec"]
        lines = case["out"].read_text().splitlines()
        if json.loads(lines[0]).get("kind") != "threshold-report":
            return "bad JSONL header"
        records = [json.loads(line) for line in lines[1:]]
        if len(records) != len(spec["n"]) * len(spec["bar_n"]):
            return f"{len(records)} records, expected {len(spec['n']) * len(spec['bar_n'])}"
        for r in records:
            err = abs(r["gamma_t_c_numeric"] - threshold(r["n"]))
            if not (err < THRESHOLD_RESIDUAL_TOL and r["residual"] < THRESHOLD_RESIDUAL_TOL):
                return f"threshold residual {err:.3e} at n={r['n']}, bar_n={r['bar_n']}"
        return None

    def digest(self, case, code):
        h = hashlib.sha256(str(code).encode())
        for path in sorted(case["dir"].iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()


class Oracles(Workload):
    """Three evolution routes against the closed form, at the CLI's tolerances."""

    CASES = 8
    ROUTES = ("convolution", "fokker-planck", "fock-basis")
    EXTENT = 6.0
    GRID = 241
    POINTS = np.linspace(-5.0, 5.0, 11)

    def inputs(self, rng):
        bar_ns = strata(rng, self.CASES)
        ns = 2.0 * strata(rng, self.CASES)
        fracs = 1.2 * strata(rng, self.CASES)
        return [
            {"route": route, "bar_n": float(b), "n": float(n), "gamma_t": float(f) * threshold(n)}
            for b, n, f in zip(bar_ns, ns, fracs)
            for route in self.ROUTES
        ]

    def prepare(self, spec):
        bar_n = spec["bar_n"]
        channel = tw.ChannelParams(spec["n"], spec["gamma_t"])
        if spec["route"] == "convolution":
            qq, pp = np.meshgrid(self.POINTS, self.POINTS, indexing="ij")
        else:
            axis = np.linspace(-self.EXTENT, self.EXTENT, self.GRID)
            qq, pp = np.meshgrid(axis, axis, indexing="ij")
        return {
            "spec": spec,
            "channel": channel,
            "initial": lambda q, p: _w_initial(q, p, bar_n),
            "qq": qq,
            "pp": pp,
        }

    def warm_up(self):
        channel = tw.ChannelParams(0.5, 0.3)
        initial = lambda q, p: _w_initial(q, p, 1.0)
        tw.convolve_evolve(initial, channel, 0.5, 0.5)
        tw.fokker_planck_evolve(tw.sample_grid(initial, -6.0, 6.0, -6.0, 6.0, 41, 41), channel)
        tw.evolve_fock_diagonal(tw.spats_weights(1.0), channel, step_tol=1e-11)
    def run(self, case, counted):
        route, channel = case["spec"]["route"], case["channel"]
        initial = counted(case["initial"])
        if route == "convolution":
            return np.array([
                [tw.convolve_evolve(initial, channel, q, p) for p in self.POINTS] for q in self.POINTS
            ])
        e = self.EXTENT
        if route == "fokker-planck":
            grid = tw.sample_grid(initial, -e, e, -e, e, self.GRID, self.GRID)
            return tw.fokker_planck_evolve(grid, channel).values
        evolved = tw.evolve_fock_diagonal(tw.spats_weights(case["spec"]["bar_n"]), channel, step_tol=1e-11)
        return tw.eval_fock_diagonal_wigner(case["qq"], case["pp"], evolved)

    def check(self, case, values):
        spec = case["spec"]
        expected = _w_closed(case["qq"], case["pp"], case["channel"], spec["bar_n"])
        err = linf(values, expected)
        tol = ORACLE_TOLS[spec["route"]]
        if not err < tol:
            return f"{spec['route']}: |W - closed form| = {err:.3e} >= {tol:g}"
        return None

    def digest(self, case, values):
        return array_digest(values)


class Negativity(Workload):
    """pnw_numeric on a displaced evolved SPATS (cartesian path).

    The physical cases are fixed: the README's seed occupancies
    bar_n in {0, 3/7, 1} in the n = 0.5 channel, paired with 0.2, 0.5 and 0.7
    of the threshold decay time, so the batch holds the costliest case
    (bar_n 0 at 0.2, refined up to 1616 cells per axis) and two cheaper ones.
    Three operations make a pass of about 5 s, so every operation runs five
    times or more in a run and its median is not a mean of two.

    Each case is shifted by one of the 8 images of (cos, sin)(pi/8) under
    the symmetries of the square grid (quarter turns and the swap of q and
    p), which the seed draws.  The grid is symmetric about the origin, so
    every image meets the cells in the same way and costs the same; a
    direction drawn from the full circle changed a case's cost by up to 2x,
    because it decides at which resolution doubling the refinement stops.
    The displacement's length is fixed, since the grid's extent grows with
    it.  Translation moves the nodal curve across the cells but leaves the
    closed-form volume unchanged.
    """

    CASES = ((0.0, 0.2), (3.0 / 7.0, 0.5), (1.0, 0.7))  # (bar_n, share of gamma_t_c)
    CHANNEL_N = 0.5
    BASE_RESOLUTION = 101
    SHIFT = (math.cos(math.pi / 8.0), math.sin(math.pi / 8.0))

    def inputs(self, rng):
        gc = threshold(self.CHANNEL_N)
        specs = []
        for (bar_n, fraction), image in zip(self.CASES, rng.integers(0, 8, size=len(self.CASES))):
            a, b = self.SHIFT if image < 4 else self.SHIFT[::-1]
            for _ in range(image % 4):  # quarter turns
                a, b = -b, a
            specs.append({"bar_n": bar_n, "n": self.CHANNEL_N, "gamma_t": fraction * gc,
                          "shift_q": a, "shift_p": b})
        return specs

    def prepare(self, spec):
        bar_n, a, b = spec["bar_n"], spec["shift_q"], spec["shift_p"]
        channel = tw.ChannelParams(spec["n"], spec["gamma_t"])
        return {
            "spec": spec,
            "channel": channel,
            "evaluator": lambda q, p: _w_closed(q - a, p - b, channel, bar_n),
            "extent": tw.default_extent(bar_n, spec["n"]) + math.hypot(a, b),
        }

    def warm_up(self):
        case = self.prepare({"bar_n": 1.0, "n": 0.5, "gamma_t": 0.3, "shift_q": 0.5, "shift_p": 0.0})
        tw.pnw_numeric(case["evaluator"], extent=case["extent"], base_resolution=11, abs_tol=1e-2)
    def run(self, case, counted):
        return tw.pnw_numeric(
            counted(case["evaluator"]),
            extent=case["extent"],
            base_resolution=self.BASE_RESOLUTION,
            abs_tol=NEGATIVITY_ABS_TOL,
        )

    def check(self, case, result):
        expected = _pnw_closed(case["channel"], case["spec"]["bar_n"]).volume
        err = abs(result.volume - expected)
        if not err <= NEGATIVITY_CHECK_TOL:
            return f"|volume - closed form| = {err:.3e} > {NEGATIVITY_CHECK_TOL:g}"
        return None

    def digest(self, case, result):
        return repr(result.volume)


def make(name: str, workdir: Path):
    """The workload called ``name``; ``workdir`` receives the CLI's output files."""
    if name == "theorem":
        return Theorem()
    if name == "figures":
        return Figures(workdir)
    if name == "oracles":
        return Oracles()
    if name == "negativity":
        return Negativity()
    raise ValueError(f"unknown workload {name!r}")
