import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import thermalwigner

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Runs in a fresh interpreter: other test modules import scipy themselves.
_SCIPY_GUARD = """
import sys

import thermalwigner as tw
import thermalwigner.cli as cli

def loaded(*names):
    return [name for name in names if name in sys.modules]

out = sys.argv[1]
assert cli.main(["wigner-grid", "--bar-n", "1", "--n", "0.5", "--gamma-t", "0", "0.3",
                 "--resolution", "11", "--out", out + "/grid.csv"]) == 0
assert cli.main(["threshold", "--out", out + "/thresholds.jsonl"]) == 0
heavy = loaded("scipy.linalg", "scipy.integrate", "scipy.optimize")
assert not heavy, heavy

initial = lambda q, p: tw.eval_spats_wigner_initial(q, p, 1.0)
tw.fokker_planck_evolve(tw.sample_grid(initial, -6.0, 6.0, -6.0, 6.0, 41, 41),
                        tw.ChannelParams(0.5, 0.2))
assert loaded("scipy.linalg") == ["scipy.linalg"]

tw.pnw_radial(lambda r: initial(r, 0.0), 6.0)
assert loaded("scipy.integrate", "scipy.optimize") == ["scipy.integrate", "scipy.optimize"]
"""


def test_all_matches_public_namespace():
    exported = thermalwigner.__all__
    for name in exported:
        assert hasattr(thermalwigner, name), name
    assert len(exported) == len(set(exported))
    public = {
        name
        for name, value in vars(thermalwigner).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(exported) == public | {"__version__"}


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert namespace["report"].passed


def test_scipy_loaded_only_by_the_routes_that_use_it(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_GUARD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
