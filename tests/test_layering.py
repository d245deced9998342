"""The package's import layering: modules import one another at their top
in one direction, each only modules before it in `ORDER`, so that a new
top-level cycle shows up as a failure; an import made inside a function is
a deliberate backward or deferred one.  `DEFERRED` names every such import,
so that a new one shows up as a change to it."""

import ast
from pathlib import Path

import equiloc

PACKAGE = Path(equiloc.__file__).parent

# every module but `__init__`, which imports the public names of them all
ORDER = ("ring", "zrational", "oracle", "model", "builders", "localization",
         "useries", "quantize", "builtins", "witten", "cli")

# (module, imported from, name): the cached pieces of a frozen component,
# which `model` keeps but `localization` and `quantize` compute; the
# numeric pairing, which only witten-check loads (with numpy); and the
# modules no exact command calls, which a module `__getattr__` (PEP 562)
# loads on first use: the builders that `equiloc` re-exports and the
# u-series that `localization` still forwards
DEFERRED = {
    ("model", "localization", "chi_tilde_pieces"),
    ("model", "quantize", "residue_pieces"),
    ("model", "quantize", "exceptional_term"),
    ("cli", "", "witten"),
    ("__init__", "", "builders"),
    ("localization", "", "useries"),
}


def relative_imports(path: Path) -> tuple[set, set]:
    """The relative imports of the module at path, as (module, imported
    from, name): those made at its top, and those made inside a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {node for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    top, deferred = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            (deferred if node in inside else top).update(
                (path.stem, node.module or "", alias.name)
                for alias in node.names)
    return top, deferred


def test_imports_inside_functions_are_the_listed_ones():
    found = set().union(*(relative_imports(path)[1]
                          for path in PACKAGE.glob("*.py")))
    assert found == DEFERRED


def test_modules_import_only_earlier_ones_at_their_top():
    paths = [path for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    assert sorted(path.stem for path in paths) == sorted(ORDER)
    for path in paths:
        # `from .x import y` imports x, `from . import x` imports x itself
        imported = {source or name
                    for _, source, name in relative_imports(path)[0]}
        assert imported <= set(ORDER[:ORDER.index(path.stem)]), path.stem
