"""Every import and every top-level definition in the library is used.

No linter ships with the project, so this is a standard-library AST scan of
each module under src/hopflab: a name bound by an import must be read
somewhere in its module. ``from __future__`` imports and the imports of a
package ``__init__`` (its re-exports) count as used. A top-level function or
class, and every method of a top-level class, must be read somewhere in the
library, and every name the package exports must resolve. No module, not
even inside a function, imports SciPy: it is needed only by the tests.
Only SpaceForm.central_difference phase-aligns representatives to difference
them, only ``constructor._curve_columns`` turns orbit invariants into a
curve's columns (inside ``constructor`` it and the exact shape data are the
only callers of ``_orbit_invariants``, and no gram-only ``_killing_gram`` is
bound there), only the austere search's grid calls the orbit body in
``constructor``, only launch inputs and stored scene rows go through
``frame_coords``, only ``actions`` reads the frame's phases, and no module
calls ``np.cross``: ``ambient.cross3`` rounds the same.
No module reads the environment: every setting is a flag or a config key.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hopflab"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom typing import Callable\n"
              "x: Callable = np.zeros\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


# -- SciPy is a test-only dependency -------------------------------------------------


def imported_packages(source):
    """Top-level packages that ``source`` imports, anywhere in the module
    (function bodies included), with the line of each import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def test_scan_finds_an_import_nested_in_a_function():
    source = ("import numpy as np\nfrom . import catalog\n"
              "def f():\n    from scipy.optimize import minimize\n    import scipy.linalg\n")
    assert imported_packages(source) == [(1, "numpy"), (4, "scipy"), (5, "scipy")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_does_not_import_scipy(path):
    assert [line for line, name in imported_packages(path.read_text()) if name == "scipy"] == []


# -- every library definition is read somewhere in the library ----------------------


def unread_definitions(sources):
    """Top-level functions and classes, and methods of top-level classes,
    that no module of ``sources`` reads.

    ``sources`` maps module paths to their text. A name counts as read where
    any module loads it as a name or an attribute; a package ``__init__``
    also reads the names it imports and every string it holds (its
    ``__all__`` and lazy export table). A method is listed as
    ``Class.method``. Dunder hooks, such as a module ``__getattr__`` or a
    ``__post_init__``, are read by Python itself and are not listed.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif path.endswith("__init__.py"):
                if isinstance(node, ast.ImportFrom):
                    read.update(alias.asname or alias.name for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    defs = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defs.extend((path, f"{node.name}.{meth.name}", meth.name) for meth in node.body
                            if isinstance(meth, ast.FunctionDef))
    return sorted((path, label) for path, label, name in defs
                  if name not in read and not name.startswith("__"))


def test_scan_flags_an_unread_definition():
    sources = {
        "pkg/__init__.py": "from .a import exported\n__all__ = ['listed']\n",
        "pkg/a.py": ("def exported(): pass\ndef listed(): pass\ndef _helper(): pass\n"
                     "def dead(): pass\nclass Dead: pass\n"
                     "class Used:\n"
                     "    def __post_init__(self): pass\n"
                     "    def called(self): pass\n"
                     "    @property\n"
                     "    def prop(self): pass\n"
                     "    def dead_method(self): pass\n"
                     "def __getattr__(name): pass\n"),
        "pkg/b.py": ("from .a import _helper, Used\nx = _helper()\ny: Used\ndead = 1\n"
                     "Used().called()\nz = y.prop\ny.dead_method = None\n"),
    }
    assert unread_definitions(sources) == [
        ("pkg/a.py", "Dead"), ("pkg/a.py", "Used.dead_method"), ("pkg/a.py", "dead")]


# methods that code outside hopflab calls by name: argparse calls error()
PROTOCOL_METHODS = {("cli.py", "_Parser.error")}


def test_every_definition_is_read_in_the_library():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in SRC.rglob("*.py")}
    unread = unread_definitions(sources)
    assert PROTOCOL_METHODS <= set(unread)
    assert sorted(set(unread) - PROTOCOL_METHODS) == []


# -- one phase-aligned central difference ---------------------------------------------


def callers(sources, name):
    """(path, enclosing definition) of every call of ``name`` in ``sources``.

    A call matches by the called name alone: ``f(...)``, ``x.f(...)``.

    The enclosing definition is the dotted name of the innermost function or
    class around the call (``Class.method``, ``outer.inner``), or
    ``<module>`` at top level.
    """
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                fn = child.func
                called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if called == name:
                    found.append((path, scope or "<module>"))
            visit(child, path, inner)

    for path, text in sources.items():
        visit(ast.parse(text), path, "")
    return sorted(found)


def test_scan_finds_phase_align_calls_by_definition():
    sources = {"a.py": ("u = sp.phase_align(z, w)\n"
                        "class S:\n"
                        "    def diff(self, z, w):\n"
                        "        return self.phase_align(z, w)\n"
                        "def f(sp):\n"
                        "    def g(z):\n"
                        "        return phase_align(z, z)\n"
                        "    return sp.phase_align\n")}
    assert callers(sources, "phase_align") == [
        ("a.py", "<module>"), ("a.py", "S.diff"), ("a.py", "f.g")]


# SpaceForm.central_difference is the one phase-aligned central difference;
# the other two callers align a single representative, not a difference
PHASE_ALIGN_CALLERS = {
    ("ambient.py", "SpaceForm.central_difference"),
    ("constructor.py", "build_hypersurface"),
    ("catalog.py", "bisector"),
}


def test_phase_align_is_called_only_by_the_central_difference():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in SRC.rglob("*.py")}
    found = set(callers(sources, "phase_align"))
    assert ("ambient.py", "SpaceForm.central_difference") in found
    assert found <= PHASE_ALIGN_CALLERS, sorted(found - PHASE_ALIGN_CALLERS)


# -- one place for a curve's orbit columns -------------------------------------------

# inside constructor, the full orbit invariants are read by the one helper
# that turns them into curve columns (for the rows and nodes of every lane and
# for a curve loaded from its rows) and by the exact shape data; a row rule's
# own evaluation or a per-curve twin of the helper would be a third
ORBIT_INVARIANTS_CALLERS = {
    ("constructor.py", "_curve_columns"),
    ("constructor.py", "equivariant_shape_data"),
}


def test_orbit_invariants_is_called_only_by_its_two_readers():
    source = (SRC / "constructor.py").read_text()
    found = set(callers({"constructor.py": source}, "_orbit_invariants"))
    assert found == ORBIT_INVARIANTS_CALLERS, sorted(found ^ ORBIT_INVARIANTS_CALLERS)


def test_constructor_binds_no_gram_only_seam():
    # a lane's rows read their gram det from the ``_curve_columns`` call that
    # gives their orbit columns, never from the gram prefix alone
    tree = ast.parse((SRC / "constructor.py").read_text())
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_killing_gram" not in bound | named


def test_orbit_body_is_called_in_constructor_only_by_the_search_grid():
    # the austere search reads H on its grid once to pick its launches; a
    # curve's rows take the orbit body inside ``_orbit_invariants`` alone, so
    # no row pays for a second body evaluation
    source = (SRC / "constructor.py").read_text()
    assert callers({"constructor.py": source}, "_orbit_body") == [
        ("constructor.py", "austere_search")]


# -- one route from a complex vector to frame coordinates ------------------------------

# a curve's rows are real from launch to scene: inside constructor only the
# entry points that take complex launch inputs read frame coordinates off
# them, and inside scene only the loader, once per stored array. The other
# way runs through ``from_frame``: no module but actions reads the phases.
FRAME_COORDS_CALLERS = {
    ("constructor.py", "integrate_sigma"),
    ("constructor.py", "austere_search"),
    ("scene.py", "sigma_from_dict.frame_rows"),
}


def test_frame_coords_is_called_only_on_launch_inputs_and_stored_rows():
    sources = {name: (SRC / name).read_text() for name in ("constructor.py", "scene.py")}
    found = set(callers(sources, "frame_coords"))
    assert found == FRAME_COORDS_CALLERS, sorted(found ^ FRAME_COORDS_CALLERS)
    readers = {str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "phases"}
    assert readers == {"actions.py"}


# -- one cross product -----------------------------------------------------------------


def test_no_module_calls_np_cross():
    # np.cross spends most of its time moving axes; ambient.cross3 forms the
    # same products and differences, bit for bit
    sources = {str(p.relative_to(SRC)): p.read_text() for p in SRC.rglob("*.py")}
    assert callers({"a.py": "n = np.cross(u, v)\n"}, "cross") == [("a.py", "<module>")]
    assert callers(sources, "cross") == []
    assert {path for path, _ in callers(sources, "cross3")} == {
        "hypersurface.py", "constructor.py", "catalog.py"}


# -- no setting comes from the environment ---------------------------------------------


def environment_reads(source):
    """Lines of ``source`` that read ``os.environ`` or ``os.getenv``, as an
    attribute or imported by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [node.lineno] * sum(alias.name in ("environ", "getenv")
                                         for alias in node.names)
    return sorted(found)


def test_scan_finds_environment_reads():
    source = ("import os\nfrom os import getenv, path\n"
              "a = os.environ.get('A')\nb = os.getenv('B')\nc = os.path.join('x')\n")
    assert environment_reads(source) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_does_not_read_the_environment(path):
    assert environment_reads(path.read_text()) == []


# -- the package's export table -------------------------------------------------------

# names removed from the library, by owning module
REMOVED = {
    "ambient": ("AmbientPoint", "AmbientTangent", "metric", "complex_structure",
                "curvature_tensor", "exp_map", "distance", "covariant_derivative",
                "section_chart"),
    "actions": ("orbit_shape_operator", "OrbitData", "phi_map", "killing_field"),
    "hypersurface": ("shape_operator", "ShapeSpectrum", "hopf_projection_count",
                     "AdaptedFrame", "adapted_frame"),
    "constructor": ("equidistance_spot_check", "curves_from_rows", "_orbit_mesh", "_sweep",
                    "_curves_close", "DEDUPE_DISTANCE", "DEDUPE_REACH"),
}


def lazy_exports():
    """The names ``hopflab.__getattr__`` routes: the keys of its one table."""
    import hopflab

    return sorted(hopflab._LAZY)


def test_export_table_resolves_and_removed_names_are_gone():
    import hopflab

    lazy = lazy_exports()
    assert len(lazy) == 13
    assert len(hopflab.__all__) == 17
    for name in lazy + hopflab.__all__:
        getattr(hopflab, name)
    star = {}
    exec("from hopflab import *", star)
    assert set(lazy) <= set(star)
    for module, names in REMOVED.items():
        owner = importlib.import_module(f"hopflab.{module}")
        for name in names:
            for where in (hopflab, owner):
                with pytest.raises(AttributeError):
                    getattr(where, name)
    with pytest.raises(AttributeError):
        importlib.import_module("hopflab.actions").PolarActionSpec.hermitian_matrix
    with pytest.raises(AttributeError):
        importlib.import_module("hopflab.hypersurface").AdaptedFrames.at
    with pytest.raises(AttributeError):
        importlib.import_module("hopflab.hypersurface").HypersurfacePatch.with_diff_step
    with pytest.raises(AttributeError):   # the scene layout is scene.sigma_to_dict's
        importlib.import_module("hopflab.constructor").SigmaCurve.to_dict
