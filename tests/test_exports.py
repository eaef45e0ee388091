import ast
import importlib
import inspect
import pkgutil

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
