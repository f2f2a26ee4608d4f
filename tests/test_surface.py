"""The package's public surface: root exports, each module's __all__, class members, domain attributes."""

import ast
import collections
import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np

import lattice_vortex
from lattice_vortex.cli import _solve_inputs
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(lattice_vortex.__file__).parent


def readme_bullets(title):
    """The bullet lines of README's section `title`."""
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("- ")]


def library_use_names():
    """Backticked names on the bullet lines of README's "Library use" section, in order."""
    return [name for line in readme_bullets("Library use") for name in re.findall(r"`(\w+)`", line)]


def layout_module_names():
    """Backticked names before the " - " of each bullet in README's "Layout" section."""
    return [
        name
        for line in readme_bullets("Layout")
        for name in re.findall(r"`(\w+)`", line.split(" - ", 1)[0])
    ]


def test_readme_layout_lists_each_module():
    # A deleted module cannot stay documented, nor a new one go undocumented.
    modules = [info.name for info in pkgutil.iter_modules(lattice_vortex.__path__)]
    assert sorted(layout_module_names()) == sorted(modules)


def test_readme_solve_config_builds():
    # A key the CLI does not read cannot appear in README's example.
    after = README.read_text().split("`solve` configuration:", 1)[1]
    block = after.split("```json\n", 1)[1].split("```", 1)[0]
    domain, vortices, params = _solve_inputs(json.loads(block))
    assert domain.n_interior > 0 and len(vortices) == 1 and params.lam == 1.0


def test_root_exports_match_readme():
    assert lattice_vortex.__all__ == library_use_names()
    for name in lattice_vortex.__all__:
        assert getattr(lattice_vortex, name) is not None


def test_every_module_all_name_exists():
    for info in pkgutil.iter_modules(lattice_vortex.__path__):
        module = importlib.import_module(f"lattice_vortex.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"lattice_vortex.{info.name}.__all__ names missing objects: {missing}"


def package_reads():
    """Module name -> the names that package code reads from that module, found with ast.

    A name is read by `from .module import name`, by a load of the bare
    name inside its own module, or by a `module.name` load where `module`
    was bound by `from . import module`; `np.zeros` reads nothing here.
    """
    reads = collections.defaultdict(set)
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    bound.update({alias.asname or alias.name: alias.name for alias in node.names})
                else:
                    reads[node.module].update(alias.name for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[path.stem].add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                reads[bound[node.value.id]].add(node.attr)
    return reads


def test_every_public_name_has_a_package_reader():
    # A public name that only the tests read belongs in the tests.
    reads = package_reads()
    unread = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(lattice_vortex.__path__)
        for name in getattr(importlib.import_module(f"lattice_vortex.{info.name}"), "__all__", ())
        if name not in reads[info.name]
    ]
    assert not unread, f"public names no package code reads: {unread}"


def package_attribute_reads():
    """Every attribute name that package code loads, as in `x.name` or `self.name()`."""
    return {
        node.attr
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_member_has_a_package_reader():
    # A public method or property that only the tests read belongs in the
    # tests; a reader of any object's attribute of that name counts.
    reads = package_attribute_reads()
    unread = [
        f"{path.stem}.{cls.name}.{member.name}"
        for path in PACKAGE.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in reads
    ]
    assert not unread, f"public members no package code reads: {unread}"


def class_attributes(cls):
    """The data attributes of a class: its annotated fields and every `self.<name>` it assigns."""
    fields = {
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    assigned = {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    return fields | assigned


def test_every_public_attribute_has_a_package_reader():
    # A field or attribute that only the tests read is work no output
    # shows; a reader of any object's attribute of that name counts, as
    # for methods, and `getattr` with a string does not. Matching by name
    # lets an unread field through when another class's field of the same
    # name is read (ROADMAP item 13 lists the known cases).
    reads = package_attribute_reads()
    unread = [
        f"{path.stem}.{cls.name}.{name}"
        for path in PACKAGE.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for name in sorted(class_attributes(cls))
        if not name.startswith("_") and name not in reads
    ]
    assert not unread, f"public attributes no package code reads: {unread}"


def test_domains_hold_each_site_once():
    # `coords` is the one site table and `adjacency` the one neighbor table:
    # no attribute holds a Python object per site, the interior adjacency
    # is a view into the closure adjacency, and `edges` is derived on first
    # use, so a domain that is only solved on never holds it.
    scattered = [(0, 0), (1, 0), (5, 5), (-7, 3), (10**12, 0), (10**12, -4), (3, 3), (3, 4)]
    for dom in (make_box(2, 4), make_ball(3, 3), LatticeDomain(2, scattered)):
        for name, value in vars(dom).items():
            assert isinstance(value, (np.ndarray, int, str)), name
        assert np.shares_memory(dom.interior_neighbors, dom.adjacency)
        assert not {"closure", "interior", "boundary", "index_of"} & set(vars(dom))
        arrays = {name for name, value in vars(dom).items() if isinstance(value, np.ndarray)}
        assert arrays == {"coords", "adjacency", "interior_neighbors"}
        assert dom.edges is dom.edges and "edges" in vars(dom)

