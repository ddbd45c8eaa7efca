"""The package's public names: nothing exported that no module declares."""

import importlib
import types

import delayw
import delayw.errors

MODULES = ("lambertw", "spectrum", "assign", "oracle", "sim")


def test_public_surface():
    # delayw exports exactly the error classes, each module's __all__ and
    # __version__
    declared = set()
    for name in MODULES:
        mod = importlib.import_module(f"delayw.{name}")
        assert all(hasattr(mod, n) for n in mod.__all__), name
        declared.update(mod.__all__)
    errors = {n for n, o in vars(delayw.errors).items() if isinstance(o, type) and issubclass(o, Exception)}
    public = {n for n, o in vars(delayw).items()
              if not n.startswith("_") and not isinstance(o, types.ModuleType)}
    assert public == errors | declared
    assert isinstance(delayw.__version__, str)
