"""The package's public surface: the root exports and each module's __all__."""

import importlib
import pkgutil
import re
from pathlib import Path

import lattice_vortex

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_names():
    """Backticked names on the bullet lines of README's "Library use" section, in order."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return [
        name
        for line in section.splitlines()
        if line.startswith("- ")
        for name in re.findall(r"`(\w+)`", line)
    ]


def test_root_exports_match_readme():
    assert lattice_vortex.__all__ == library_use_names()
    for name in lattice_vortex.__all__:
        assert getattr(lattice_vortex, name) is not None


def test_every_module_all_name_exists():
    for info in pkgutil.iter_modules(lattice_vortex.__path__):
        module = importlib.import_module(f"lattice_vortex.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"lattice_vortex.{info.name}.__all__ names missing objects: {missing}"
