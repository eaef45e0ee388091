import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mdirand

# every module of the package; __main__ runs the command line on import
MODULES = ["mdirand"] + [
    f"mdirand.{m.name}" for m in pkgutil.iter_modules(mdirand.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_the_environment(name):
    # a run is stated by its command line and its scenario file alone
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    names = {n.attr if isinstance(n, ast.Attribute) else n.id
             for n in ast.walk(tree) if isinstance(n, (ast.Attribute, ast.Name))}
    assert names.isdisjoint({"environ", "getenv"})


# the functions under src/ that no code there calls, each kept for a reason
UNCALLED = {
    "jacobi_eigvalsh": "the values-only reference the tests compare LAPACK against, and a "
                       "span target of the benchmark",
}


def test_every_function_is_called_or_an_entry_point():
    # a function or method that no code under src/ calls or passes on is
    # an entry point (the package's __all__, the console script cli.main)
    # or named in UNCALLED with its reason, so a helper that a change
    # leaves without callers cannot linger; a name that gains a caller
    # leaves UNCALLED
    defined, used = set(), set()
    for path in Path(mdirand.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dunder = {n for n in defined if n.startswith("__") and n.endswith("__")}
    assert defined - used - dunder - set(mdirand.__all__) - {"main"} == set(UNCALLED)


# the names that a module under src/ imports and does not use, each kept
# for a reason, as "module.name"
UNUSED_IMPORTS = {
    "cli.sigma_x_povm": "a span target of the benchmark, traced as cli's name",
    "cli.sigma_z_povm": "a span target of the benchmark, traced as cli's name",
    "sdp_solver.jacobi_eigvalsh": "a span target of the benchmark, traced as sdp_solver's name",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    # a name that a module imports is read in that module, exported in its
    # __all__ or named in UNUSED_IMPORTS with its reason, so an import that
    # a change leaves unused cannot linger; a name that gains a use leaves
    # UNUSED_IMPORTS
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    short = name.rpartition(".")[2]
    allowed = {n.partition(".")[2] for n in UNUSED_IMPORTS if n.startswith(short + ".")}
    assert imported - used - set(module.__all__) == allowed
