"""The package's public surface: root exports, each module's __all__, class members, domain attributes."""

import ast
import collections
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np

import lattice_vortex
from lattice_vortex.cli import _solve_inputs, build_parser
from lattice_vortex.lattice import LatticeDomain, make_ball, make_box

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")
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


def readme_command_lines():
    """The argument lists of README's "Command line" block, optional `[...]` parts included."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.replace("[", " ").replace("]", " "))[1:]
        for line in block.splitlines()
        if line.startswith("lattice-vortex ")
    ]


def test_readme_command_lines_parse():
    # A documented flag the parser lacks, or a subcommand it does not know,
    # cannot stay in README's usage block.
    lines = readme_command_lines()
    assert {argv[0] for argv in lines} == {"solve", "exhaust", "verify"}
    for argv in lines:
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            raise AssertionError(f"README command line does not parse: {argv}") from exc


# numpy functions that numpy 2.0 added (the array-API names among them);
# numpy 1.x has none of them.
NUMPY_2_NAMES = {
    "vecdot", "matvec", "vecmat", "unstack", "cumulative_sum", "cumulative_prod", "concat",
    "permute_dims", "matrix_transpose", "astype", "isdtype", "pow", "acos", "asin", "atan", "atan2",
}


def numpy_floor():
    """The lowest numpy version pyproject.toml's dependencies admit, as a tuple of ints."""
    spec = re.search(r'"numpy>=([\d.]+)"', PYPROJECT.read_text()).group(1)
    return tuple(int(part) for part in spec.split("."))


def test_numpy_floor_has_every_numpy_function_the_package_calls():
    # `np.vecdot` exists from numpy 2.0 on: under a lower floor an install
    # can resolve to numpy 1.x, where `verify` fails with AttributeError.
    used = {
        node.attr
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    }
    needs = sorted(used & NUMPY_2_NAMES)
    assert not needs or numpy_floor() >= (2, 0), f"the package calls np.{needs} under {numpy_floor()}"


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
    # is a view into the closure adjacency, and the derived tables
    # (`interior_edges`, `closure_pairs`, the keys `locate` searches) are
    # built on first use and then held, so a domain that is only solved on
    # by the box inverse holds none of them.
    scattered = [(0, 0), (1, 0), (5, 5), (-7, 3), (10**12, 0), (10**12, -4), (3, 3), (3, 4)]
    for dom in (make_box(2, 4), make_ball(3, 3), LatticeDomain(2, scattered)):
        for name, value in vars(dom).items():
            assert isinstance(value, (np.ndarray, int, str)), name
        assert np.shares_memory(dom.interior_neighbors, dom.adjacency)
        assert not {"closure", "interior", "boundary", "index_of"} & set(vars(dom))
        arrays = {name for name, value in vars(dom).items() if isinstance(value, np.ndarray)}
        assert arrays == {"coords", "adjacency", "interior_neighbors"}
        for table in ("interior_edges", "closure_pairs"):
            assert getattr(dom, table) is getattr(dom, table) and table in vars(dom)

