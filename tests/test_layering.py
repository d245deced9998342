"""The package's import layering: modules import one another at their top,
in one direction (ring and zrational, then model, localization, quantize,
witten and the front ends), and an import made inside a function is a
deliberate backward or deferred one.  `DEFERRED` names every such import,
so that a new one shows up as a change to it."""

import ast
from pathlib import Path

import equiloc

PACKAGE = Path(equiloc.__file__).parent

# (module, imported from, name): the cached pieces of a frozen component,
# which `model` keeps but `localization` and `quantize` compute, and the
# numeric pairing, which only witten-check loads (with numpy)
DEFERRED = {
    ("model", "localization", "chi_tilde_pieces"),
    ("model", "quantize", "Classification"),
    ("model", "quantize", "residue_pieces"),
    ("model", "quantize", "exceptional_term"),
    ("cli", "", "witten"),
}


def deferred_imports(path: Path) -> set[tuple[str, str, str]]:
    """The relative imports made inside a function of the module at path."""
    out = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level:
                    out.update((path.stem, node.module or "", alias.name)
                               for alias in node.names)
    return out


def test_imports_inside_functions_are_the_listed_ones():
    found = set().union(*map(deferred_imports, PACKAGE.glob("*.py")))
    assert found == DEFERRED
