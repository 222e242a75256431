import inspect

import thermalwigner


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
