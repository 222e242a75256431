import inspect
import re
from pathlib import Path

import thermalwigner

README = Path(__file__).resolve().parents[1] / "README.md"


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
