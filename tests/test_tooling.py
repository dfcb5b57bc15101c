"""Static checks on the package source, by the standard library's ``ast``."""

import ast
import inspect
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tsfrac"
# __init__.py imports what the package exports
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))
REPO = SRC.parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that the module never reads."""
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


def test_the_check_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom time import perf_counter as pc\nmath.pi\n"
    assert unused_imports(source) == [(2, "os"), (3, "pc")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private module-level name (``_x``, not
    a dunder) that the modules define and none of them reads, by name or as
    an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_the_check_finds_an_unread_private_name():
    sources = {"a.py": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\n"
                       "class _Old:\n    pass\n",
               "b.py": "from a import _f\nimport a\n_f()\na._B\n_unused = 3\n"}
    assert unread_private_names(sources) == [("a.py", 6, "_Old"),
                                             ("b.py", 5, "_unused")]


def test_every_private_name_is_read():
    # a private function or class nothing reads is dead code
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def _walk_in_functions(node, function="<module>"):
    """Every node below ``node`` with the name of its innermost function."""
    for child in ast.iter_child_nodes(node):
        yield child, function
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else function)
        yield from _walk_in_functions(child, inner)


def dense_layout_sites(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, function, what) of every place that can lay out T[i, j] =
    c[|i - j|] densely: an import or attribute read of scipy.linalg's
    ``toeplitz`` or ``circulant`` or of numpy's ``sliding_window_view`` or
    ``as_strided``, and every ``ndarray`` call given strides."""
    scipy_names = {"toeplitz", "circulant"}
    numpy_names = {"sliding_window_view", "as_strided"}
    sites = []
    for module, source in sources.items():
        for node, function in _walk_in_functions(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = (scipy_names if node.module.startswith("scipy.linalg")
                         else numpy_names if node.module.startswith("numpy")
                         else set())
                sites += [(module, function, f"{node.module}.{alias.name}")
                          for alias in node.names if alias.name in names]
            elif isinstance(node, ast.Attribute):
                # scipy.linalg.toeplitz or linalg.toeplitz, not tsfrac.toeplitz
                owner = getattr(node.value, "attr", getattr(node.value, "id", None))
                if node.attr in numpy_names or (node.attr in scipy_names
                                                and owner == "linalg"):
                    sites.append((module, function, node.attr))
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "ndarray"
                  and (len(node.args) >= 5
                       or any(k.arg == "strides" for k in node.keywords))):
                sites.append((module, function, "ndarray(strides)"))
    return sorted(sites)


def test_the_check_finds_a_dense_layout_site():
    source = ("from scipy.linalg import eigvalsh, toeplitz\n"
              "import numpy as np\n"
              "import scipy.linalg\n"
              "def f(c):\n"
              "    return scipy.linalg.circulant(c)\n"
              "class P:\n"
              "    def g(self, c):\n"
              "        w = np.lib.stride_tricks.sliding_window_view(c, 2)\n"
              "        return np.ndarray((2, 2), buffer=c, strides=(-8, 8))\n"
              "from numpy.lib.stride_tricks import as_strided\n")
    assert dense_layout_sites({"m.py": source}) == [
        ("m.py", "<module>", "numpy.lib.stride_tricks.as_strided"),
        ("m.py", "<module>", "scipy.linalg.toeplitz"),
        ("m.py", "f", "circulant"),
        ("m.py", "g", "ndarray(strides)"),
        ("m.py", "g", "sliding_window_view"),
    ]


def test_one_function_lays_out_every_dense_toeplitz_matrix():
    # A, s(A) and P^{-1} are all T[i, j] = c[|i - j|]; one strided view forms them
    assert dense_layout_sites({p.name: p.read_text() for p in PACKAGE}) == [
        ("toeplitz.py", "symmetric_toeplitz", "ndarray(strides)")]


# the fields a kernel reads to apply an operator, and the parent's names for
# them on the preconditioner record
KERNEL_FIELDS = {"dense", "half_spectrum", "inv_dense", "inv_half"}


def kernel_field_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) of every function that reads a kernel field of an
    operator as an attribute; a method call such as ``disc.dense()`` is not
    a read."""
    sites = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        sites.update((module, function) for node, function in _walk_in_functions(tree)
                     if isinstance(node, ast.Attribute) and node.attr in KERNEL_FIELDS
                     and isinstance(node.ctx, ast.Load) and id(node) not in called)
    return sorted(sites)


def test_the_check_finds_a_second_kernel():
    source = ("def _apply(op, v):\n"
              "    return op.dense @ v if op.dense is not None else op.half_spectrum\n"
              "def solve(p, v):\n"
              "    return p.inv_dense @ v\n"
              "def matrix(disc):\n"
              "    return disc.dense()\n")
    assert kernel_field_sites({"m.py": source}) == [("m.py", "_apply"), ("m.py", "solve")]


def test_one_kernel_applies_every_operator():
    # A and P^{-1} are one record, applied by one function
    assert kernel_field_sites({p.name: p.read_text() for p in PACKAGE}) == [
        ("toeplitz.py", "_apply")]


def _called(node) -> str:
    """The name a call node calls: ``f`` for f(...) and np.f(...)."""
    return getattr(node.func, "attr", getattr(node.func, "id", ""))


def closed_form_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) of every function that calls ``expm1`` on an
    argument holding a ``log1p`` call, or on a name that it also passes to
    ``log1p``, as an in-place evaluation does: the guarded L1 closed form."""
    sites = set()
    for module, source in sources.items():
        calls = [(node, function) for node, function in _walk_in_functions(ast.parse(source))
                 if isinstance(node, ast.Call)]
        logged = {(function, arg.id) for node, function in calls
                  if _called(node) == "log1p" for arg in node.args
                  if isinstance(arg, ast.Name)}
        for node, function in calls:
            if _called(node) == "expm1" and any(
                    (isinstance(inner, ast.Call) and _called(inner) == "log1p")
                    or (isinstance(inner, ast.Name) and (function, inner.id) in logged)
                    for arg in node.args for inner in ast.walk(arg)):
                sites.add((module, function))
    return sorted(sites)


def test_the_check_finds_a_second_closed_form():
    source = ("import numpy as np\n"
              "from numpy import expm1, log1p\n"
              "def weights(g, x):\n"
              "    return np.expm1(g * np.log1p(x))\n"
              "class Panel:\n"
              "    def row(self, g, x):\n"
              "        return expm1(g * log1p(x))\n"
              "def in_place(g, q):\n"
              "    np.log1p(q, out=q)\n"
              "    q *= g\n"
              "    return np.expm1(q, out=q)\n"
              "def other(x, y):\n"
              "    return np.expm1(x) + np.log1p(y)\n")
    assert closed_form_sites({"m.py": source}) == [
        ("m.py", "in_place"), ("m.py", "row"), ("m.py", "weights")]


def test_one_function_holds_the_l1_closed_form():
    # one row and a panel of rows of L1 weights share one closed form
    assert closed_form_sites({p.name: p.read_text() for p in PACKAGE}) == [
        ("mesh.py", "l1_weights")]


# the problem callables every level evaluates on the grid
PROBLEM_DATA = {"kappa", "source", "initial", "exact"}


def problem_data_sites(source: str) -> list[tuple[str, str]]:
    """(function, field) of every read of a problem callable, ``spec.kappa``,
    ``spec.source``, ``spec.initial`` or ``spec.exact``: a call, or the
    callable passed on to be called."""
    return sorted({(function, node.attr)
                   for node, function in _walk_in_functions(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and getattr(node.value, "id", None) == "spec"
                   and node.attr in PROBLEM_DATA})


def test_the_check_finds_a_second_problem_data_site():
    source = ("def run(spec, x, t):\n"
              "    k = spec.kappa(x, t)\n"
              "    return spec.source(x, t), spec.initial(x), spec.exact(x, t)\n"
              "class Level:\n"
              "    def rhs(self, spec, x, t):\n"
              "        return spec.source(x, t) + self.source(x)\n"
              "def block(spec, x, t):\n"
              "    return evaluate(spec.kappa, x, t), spec.gamma\n")
    assert problem_data_sites(source) == [
        ("block", "kappa"), ("rhs", "source"), ("run", "exact"), ("run", "initial"),
        ("run", "kappa"), ("run", "source")]


def test_one_function_evaluates_the_problem_data():
    # the run driver passes each callable to one grid evaluator, so a
    # second site would be an unchecked one
    assert problem_data_sites((SRC / "scheme.py").read_text()) == [
        ("_run", "exact"), ("_run", "initial"), ("_run", "kappa"), ("_run", "source")]


def _called_name(node) -> str | None:
    """The name a call node calls: ``f(...)`` or ``module.f(...)``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def soe_interval_sites(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, function, what) of every function that derives the left end
    of the FIDS SOE interval from the mesh, "first step" written out as
    ``(1 / M) ** r`` or "later steps" ``tau[1:]`` or ``mesh.blocks(2)``
    (positional or ``first=2``), or
    that builds the run's SOE by hand, "run's SOE": a ``build_soe`` call
    given ``soe_interval(...)``."""
    sites = set()
    for module, source in sources.items():
        for node, function in _walk_in_functions(ast.parse(source)):
            first_step = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                          and isinstance(node.left, ast.BinOp)
                          and isinstance(node.left.op, ast.Div)
                          and getattr(node.left.left, "value", None) == 1)
            later_steps = ((isinstance(node, ast.Subscript)
                            and getattr(node.value, "attr", getattr(node.value, "id", None))
                            == "tau"
                            and isinstance(node.slice, ast.Slice)
                            and getattr(node.slice.lower, "value", None) == 1)
                           or (_called_name(node) == "blocks"
                               and any(getattr(arg, "value", None) == 2
                                       for arg in node.args[:1]
                                       + [k.value for k in node.keywords
                                          if k.arg == "first"])))
            run_soe = (_called_name(node) == "build_soe"
                       and any(_called_name(getattr(arg, "value", arg)) == "soe_interval"
                               for arg in node.args))
            for what, found in (("first step", first_step), ("later steps", later_steps),
                                ("run's SOE", run_soe)):
                if found:
                    sites.add((module, function, what))
    return sorted(sites)


def test_the_check_finds_a_second_soe_interval_site():
    source = ("import numpy as np\n"
              "def run(spec, M, r):\n"
              "    return build_soe(spec.gamma, 1e-9, (1.0 / M) ** r * spec.T, spec.T)\n"
              "class Mesh:\n"
              "    def delta(self):\n"
              "        return self.tau[1:].min()\n"
              "def copy(spec, mesh):\n"
              "    return build_soe(spec.gamma, 1e-9, *soe_interval(mesh), relative=True)\n"
              "def qualified(spec, mesh):\n"
              "    return soe.build_soe(spec.gamma, 1e-9, *scheme.soe_interval(mesh))\n"
              "def walk(mesh):\n"
              "    return min(tau.min() for _, _, tau in mesh.blocks(first=2))\n"
              "def positional(mesh):\n"
              "    return [tau[0] for _, _, tau in mesh.blocks(2)]\n"
              "def others(mesh, tau, M, m, r):\n"
              "    t = (np.arange(M + 1) / M) ** r, mesh.blocks(), mesh.blocks(first=1)\n"
              "    build_soe(0.5, 1e-9, 1e-3, 1.0, relative=True), soe_interval(mesh)\n"
              "    return t, mesh.tau[m - 1], tau[:1], (1.0 / 256.0) ** r, (2 / M) ** r\n")
    assert soe_interval_sites({"m.py": source}) == [
        ("m.py", "copy", "run's SOE"), ("m.py", "delta", "later steps"),
        ("m.py", "others", "first step"), ("m.py", "positional", "later steps"),
        ("m.py", "qualified", "run's SOE"), ("m.py", "run", "first step"),
        ("m.py", "walk", "later steps")]


def test_one_function_derives_the_soe_interval():
    # and one builds the run's SOE from it
    assert soe_interval_sites({p.name: p.read_text() for p in PACKAGE}) == [
        ("scheme.py", "run_soe", "run's SOE"), ("scheme.py", "soe_interval", "later steps")]


def test_the_tests_take_the_run_soe_from_run_soe():
    # a test that rebuilds the run's SOE by hand checks another SOE once the
    # run's target changes
    sources = {p.name: p.read_text() for p in sorted((REPO / "tests").glob("*.py"))}
    assert [site for site in soe_interval_sites(sources) if site[2] == "run's SOE"] == []


def private_imports(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private name (``_x``, not a dunder)
    that a module takes from another module of the package: by a relative
    or ``tsfrac`` import, or as an attribute of a package module it
    imports by ``from . import``."""
    sites = []
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "tsfrac"):
                sites += [(module, node.lineno, alias.name) for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.startswith("__")]
                if node.level and node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
        sites += [(module, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) in modules
                  and node.attr.startswith("_") and not node.attr.startswith("__")]
    return sorted(sites)


def test_the_check_finds_a_private_import():
    source = ("from .mesh import _last_weight, build_mesh\n"
              "from . import toeplitz, fourier as f\n"
              "from tsfrac.scheme import _level_shift\n"
              "import numpy as np\n"
              "from numpy import _private\n"
              "from .soe import __doc__\n"
              "def g(v, _local):\n"
              "    return toeplitz._apply(v) + f._plan + toeplitz.toeplitz_matvec(v) + np._x\n")
    assert private_imports({"m.py": source}) == [
        ("m.py", 1, "_last_weight"), ("m.py", 3, "_level_shift"),
        ("m.py", 8, "_apply"), ("m.py", 8, "_plan")]


def test_no_module_imports_a_private_name():
    # what modules share is public; a private name is its module's own
    assert private_imports({p.name: p.read_text() for p in PACKAGE}) == []


def gamma_factor_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) of every function that forms Gamma(1-gamma): a
    call of ``gammaln`` on ``1 - gamma``, gamma a name or an attribute."""
    sites = set()
    for module, source in sources.items():
        for node, function in _walk_in_functions(ast.parse(source)):
            if isinstance(node, ast.Call) and _called(node) == "gammaln" and node.args:
                arg = node.args[0]
                if (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
                        and getattr(arg.left, "value", None) == 1
                        and getattr(arg.right, "id", getattr(arg.right, "attr", None))
                        == "gamma"):
                    sites.add((module, function))
    return sorted(sites)


def test_the_check_finds_a_second_gamma_factor():
    source = ("import math\n"
              "import scipy.special as sp\n"
              "from scipy.special import gammaln\n"
              "def factor(gamma):\n"
              "    return math.exp(gammaln(1.0 - gamma))\n"
              "class History:\n"
              "    def rhs(self, h):\n"
              "        return sp.gammaln(1 - h.soe.gamma)\n"
              "def others(gamma, alpha):\n"
              "    return (gammaln(gamma) + gammaln(1.0 + gamma)\n"
              "            + gammaln(1.0 - alpha / 2.0) + gammaln(2.0 - gamma))\n")
    assert gamma_factor_sites({"m.py": source}) == [("m.py", "factor"), ("m.py", "rhs")]


def test_one_function_forms_the_gamma_factor():
    # the run, the CLI and the tests take Gamma(1-gamma) from mesh.gamma_factor
    assert gamma_factor_sites({p.name: p.read_text() for p in PACKAGE}) == [
        ("mesh.py", "gamma_factor")]


def gamma_factor_reads(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) of every function that reads the run's
    Gamma(1-gamma), ``g1mg``, as a name or as an attribute."""
    return sorted({(module, function) for module, source in sources.items()
                   for node, function in _walk_in_functions(ast.parse(source))
                   if isinstance(getattr(node, "ctx", None), ast.Load)
                   and "g1mg" in (getattr(node, "id", None), getattr(node, "attr", None))})


def test_the_check_finds_a_gamma_factor_read():
    source = ("class Recurrence:\n"
              "    def __init__(self, soe, g1mg):\n"
              "        self.g1mg = g1mg\n"
              "    def history(self, tau_m):\n"
              "        return history_sum(self.fast, tau_m) / self.g1mg\n"
              "def run(spec):\n"
              "    g1mg = gamma_factor(spec.gamma)\n"
              "    return level_shift(spec.gamma, 0.1, g1mg), Recurrence(None, g1mg=g1mg)\n"
              "def others(g, g1mg=1.0):\n"
              "    g.g1mg = 2.0\n"
              "    return g.g1mg_count, gamma_factor(0.5)\n")
    assert gamma_factor_reads({"m.py": source}) == [
        ("m.py", "__init__"), ("m.py", "history"), ("m.py", "run")]


def test_the_run_applies_the_gamma_factor_in_one_place():
    # the history strategies return S_m; the run divides it by
    # Gamma(1-gamma), next to the shift
    assert gamma_factor_reads({p.name: p.read_text() for p in PACKAGE}) == [
        ("mesh.py", "level_shift"), ("scheme.py", "_run")]


def newest_weight_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) of every function that calls ``_last_weight``,
    the closed form of the newest L1 weight a_m."""
    return sorted({(module, function) for module, source in sources.items()
                   for node, function in _walk_in_functions(ast.parse(source))
                   if isinstance(node, ast.Call) and _called(node) == "_last_weight"})


def test_the_check_finds_a_second_newest_weight():
    source = ("from .mesh import _last_weight\n"
              "from . import mesh\n"
              "def shift(tau, gamma, g):\n"
              "    return _last_weight(tau, gamma) / g\n"
              "class Panel:\n"
              "    def row(self, tau, gamma):\n"
              "        return mesh._last_weight(tau, gamma)\n"
              "def named(f=_last_weight):\n"
              "    return f\n")
    assert newest_weight_sites({"m.py": source}) == [("m.py", "row"), ("m.py", "shift")]


def test_one_function_forms_the_newest_weight():
    # a_m is the level's own weight: the history weights stop before it
    assert newest_weight_sites({p.name: p.read_text() for p in PACKAGE}) == [
        ("mesh.py", "level_shift")]


# the solver API the package root exports: the run drivers, their problem,
# options and report types, the builders of a run's pieces, and their errors
ROOT_API = {"make_case", "run_dids", "run_fids", "SolverOptions", "ProblemSpec",
            "SolveReport", "build_ifl", "build_mesh", "build_soe", "build_toeplitz",
            "SoeConstructionError", "PreconditionerError"}


def root_imports(sources: list[str]) -> set[str]:
    """Every name a source imports from the package root, ``from tsfrac``."""
    return {alias.name for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "tsfrac"
            and not node.level for alias in node.names}


def python_blocks(markdown: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", markdown, re.S | re.M)


def test_the_check_finds_a_root_import():
    readme = ("```sh\nfrom tsfrac import shell\n```\n"
              "```python\nfrom tsfrac import (make_case,\n    run_dids as run)\n```\n")
    source = ("import tsfrac\n"
              "from tsfrac.soe import build_soe\n"
              "from tsfrac import build_mesh\n"
              "from . import tsfrac\n")
    assert root_imports([source, *python_blocks(readme)]) == {
        "build_mesh", "make_case", "run_dids"}


def test_the_root_exports_the_solver_api():
    import tsfrac
    assert {name for name, value in vars(tsfrac).items()
            if not name.startswith("_") and not inspect.ismodule(value)} == ROOT_API


def test_every_root_import_is_exported():
    # perfbench and the README take their names from the root; the tests
    # and the CLI import each name from its module
    sources = [p.read_text() for p in sorted((REPO / "perfbench").glob("*.py"))]
    sources += python_blocks((REPO / "README.md").read_text())
    assert root_imports(sources) <= ROOT_API
