"""Per-layer metrics from traced operations.

Computed kernel quantities come from the arguments and results of the traced
calls (hooks run after each operation, outside its spans): ``term_points`` is
points times retained Fock levels of a Laguerre or Q series, ``cell_steps`` is
grid cells times the Fokker-Planck step count that ``fd_stability_limit``
gives, ``bytes_written`` is what one CLI invocation left in its output
directory.
"""

from __future__ import annotations

import inspect
import math
import statistics
from pathlib import Path

import numpy as np

from stats import median_sum

LAYERS = ("states", "wigner", "channel", "negativity", "threshold", "cli")


def _arguments(tracer, fid, args, kwargs) -> dict:
    bound = inspect.signature(tracer.original(fid)).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _evolve_fock(tracer, args, kwargs, out):
    state = _arguments(tracer, "states.evolve_fock_diagonal", args, kwargs)["state"]
    return {
        "out_size": out.weights.size,
        "mass_err_max": abs(float(out.weights.sum()) - float(state.weights.sum())),
    }


def _series(fid):
    def hook(tracer, args, kwargs, out):
        a = _arguments(tracer, fid, args, kwargs)
        points = np.broadcast(np.asarray(a["q"]), np.asarray(a["p"])).size
        return {"term_points": points * a["state"].weights.size}

    return hook


def _sample_grid(tracer, args, kwargs, out):
    return {"points": out.values.size}


def _fokker_planck(tracer, args, kwargs, out):
    a = _arguments(tracer, "channel.fokker_planck_evolve", args, kwargs)
    initial, channel, spec = a["initial"], a["channel"], a["spec"]
    steps = 0
    if channel.gamma_t > 0.0:
        limit = tracer.original("channel.fd_stability_limit")(min(initial.dq, initial.dp), channel.n)
        dt = spec.dt if spec is not None and spec.dt is not None else limit
        steps = max(1, math.ceil(channel.gamma_t / dt))
    return {
        "cell_steps": steps * initial.values.size,
        "mass_drift_max": abs(out.trapezoid_integral() - initial.trapezoid_integral()),
    }


def _cli_main(tracer, args, kwargs, out):
    argv = list(_arguments(tracer, "cli.main", args, kwargs)["argv"] or [])
    if "--out" not in argv:
        return {"bytes_written": 0}
    directory = Path(argv[argv.index("--out") + 1]).parent
    return {"bytes_written": sum(p.stat().st_size for p in directory.iterdir() if p.is_file())}


HOOKS = {
    "states.evolve_fock_diagonal": _evolve_fock,
    "wigner.eval_fock_diagonal_wigner": _series("wigner.eval_fock_diagonal_wigner"),
    "wigner.eval_q_function": _series("wigner.eval_q_function"),
    "wigner.sample_grid": _sample_grid,
    "channel.fokker_planck_evolve": _fokker_planck,
    "cli.main": _cli_main,
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summaries: list[list[dict]], traced: list[list[float]], untraced: list[list[float]]
) -> dict:
    """Per-layer metrics of one batch pass.

    ``summaries[i]`` holds the tracer summaries of operation i's traced
    executions, ``traced[i]``/``untraced[i]`` their wall times.  Counts come
    from each operation's first traced execution (they repeat exactly); times
    are each operation's median over its executions, summed over the batch.
    """
    def per_op(get):
        return median_sum([[get(s) for s in runs] for runs in summaries])

    def first(fid, key):
        return sum(runs[0]["functions"].get(fid, {}).get(key, 0) for runs in summaries if runs)

    def busy(fid, key="busy_s"):
        return per_op(lambda s: s["functions"].get(fid, {}).get(key, 0.0))

    def entries(fid):
        return [s["functions"].get(fid, {}) for runs in summaries for s in runs]

    def durations(fid):
        return [d for entry in entries(fid) for d in entry.get("durations", [])]

    def maximum(fid, key):
        return max((entry.get(key, 0.0) for entry in entries(fid)), default=0.0)

    def ms_p50(fid):
        ds = durations(fid)
        return 1e3 * statistics.median(ds) if ds else 0.0

    m = {}

    def basic(fid):
        m[f"{fid}.calls"] = first(fid, "calls")
        m[f"{fid}.busy_s"] = busy(fid)

    fid = "states.evolve_fock_diagonal"
    basic(fid)
    m[f"{fid}.ms_p50"] = ms_p50(fid)
    m[f"{fid}.out_size_mean"] = _ratio(first(fid, "out_size"), m[f"{fid}.calls"])
    m[f"{fid}.mass_err_max"] = maximum(fid, "mass_err_max")

    for fid in ("wigner.eval_fock_diagonal_wigner", "wigner.eval_q_function"):
        basic(fid)
        m[f"{fid}.term_points"] = first(fid, "term_points")
        m[f"{fid}.ns_per_term_point"] = 1e9 * _ratio(m[f"{fid}.busy_s"], m[f"{fid}.term_points"])

    fid = "wigner.sample_grid"
    basic(fid)
    m[f"{fid}.points"] = first(fid, "points")
    m[f"{fid}.ns_per_point"] = 1e9 * _ratio(m[f"{fid}.busy_s"], m[f"{fid}.points"])

    fid = "channel.convolve_evolve"
    basic(fid)
    m[f"{fid}.ms_p50"] = ms_p50(fid)
    m[f"{fid}.eval_points_per_call"] = _ratio(first(fid, "eval_points"), m[f"{fid}.calls"])

    fid = "channel.fokker_planck_evolve"
    basic(fid)
    m[f"{fid}.cell_steps"] = first(fid, "cell_steps")
    m[f"{fid}.ns_per_cell_step"] = 1e9 * _ratio(m[f"{fid}.busy_s"], m[f"{fid}.cell_steps"])
    m[f"{fid}.mass_drift_max"] = maximum(fid, "mass_drift_max")

    fid = "negativity.pnw_numeric"
    basic(fid)
    m[f"{fid}.ms_p50"] = ms_p50(fid)
    m[f"{fid}.eval_calls"] = first(fid, "eval_calls")
    m[f"{fid}.eval_points"] = first(fid, "eval_points")
    m[f"{fid}.points_per_eval_call"] = _ratio(m[f"{fid}.eval_points"], m[f"{fid}.eval_calls"])

    basic("negativity.pnw_spats_analytic")
    basic("threshold.threshold_numeric_spats")
    fid = "threshold.verify_zero_vacuum_theorem"
    basic(fid)
    m[f"{fid}.self_s"] = busy(fid, "self_s")

    fid = "cli.main"
    basic(fid)
    m[f"{fid}.self_s"] = busy(fid, "self_s")
    m[f"{fid}.bytes_written"] = first(fid, "bytes_written")
    m[f"{fid}.mb_per_s_self"] = 1e-6 * _ratio(m[f"{fid}.bytes_written"], m[f"{fid}.self_s"])

    traced_wall = median_sum(traced)
    in_layers = 0.0
    for layer in LAYERS:
        share = _ratio(per_op(lambda s: s["layers"].get(layer, 0.0)), traced_wall)
        m[f"{layer}.self_share"] = share
        in_layers += share
    m["outside.self_share"] = 1.0 - in_layers
    m["trace.overhead_frac"] = _ratio(traced_wall, median_sum(untraced)) - 1.0
    return m
