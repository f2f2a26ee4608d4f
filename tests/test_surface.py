"""The package's public surface: root exports, each module's __all__, domain attributes."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import lattice_vortex
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box

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


def test_domains_hold_each_site_once():
    # `coords` is the one site table and `adjacency` the one neighbor table:
    # no attribute holds a Python object per site, the interior adjacency
    # is a view into the closure adjacency, and `edges` is derived on first
    # use, so a domain that is only solved on never holds it.
    scattered = [(0, 0), (1, 0), (5, 5), (-7, 3), (10**12, 0), (10**12, -4), (3, 3), (3, 4)]
    for dom in (make_box(2, 4), make_ball(3, 3), LatticeDomain(2, scattered)):
        for name, value in vars(dom).items():
            if isinstance(value, (tuple, list, dict, set, frozenset)):
                assert name == "center" and len(value) == dom.dimension, name
            else:
                assert isinstance(value, (np.ndarray, int, str, type(None))), name
        assert np.shares_memory(dom.interior_neighbors, dom.adjacency)
        assert not {"closure", "interior", "boundary", "index_of"} & set(vars(dom))
        arrays = {name for name, value in vars(dom).items() if isinstance(value, np.ndarray)}
        assert arrays == {"coords", "adjacency", "interior_neighbors"}
        assert dom.edges is dom.edges and "edges" in vars(dom)

