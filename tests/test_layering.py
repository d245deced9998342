"""The package's import layering: modules import one another at their top
in one direction, each only modules before it in `ORDER`, so that a new
top-level cycle shows up as a failure; an import made inside a function is
a deliberate backward or deferred one.  `DEFERRED` names every such import,
so that a new one shows up as a change to it.  Only the modules that read
and write documents see a component's normal blocks.  Only the division
in `zrational` raises `NotAPolynomial`, the one certificate of inconsistent
data.  Only `cli.main` maps a failure to an exit code.  The tests' oracle
families stand apart from the modules that compute characters."""

import ast
from pathlib import Path

import equiloc

PACKAGE = Path(equiloc.__file__).parent

# every module but `__init__`, which exports the public names of them all
ORDER = ("ring", "zrational", "oracle", "model", "builders", "localization",
         "useries", "quantize", "builtins", "witten", "cli")

# (module, imported from, name): the cached pieces of a frozen component,
# which `model` keeps but `localization` and `quantize` compute; the
# numeric pairing, which only witten-check loads (with numpy); the modules
# a command loads only when it runs them: `quantize` for main-formula and
# verify, `builtins` for a --builtin input, and the enumeration `oracle`
# for verify of a builtin; and the u-series that `localization` still
# forwards through a module `__getattr__` (PEP 562).  `equiloc/__init__`
# loads its lazy modules by name (`__import__`), which no import
# statement shows; `tests/test_cli.py` pins them.
DEFERRED = {
    ("model", "localization", "chi_tilde_pieces"),
    ("model", "quantize", "residue_pieces"),
    ("model", "quantize", "exceptional_term"),
    ("cli", "", "witten"),
    ("cli", "", "quantize"),
    ("cli", "", "builtins"),
    ("builtins", "", "oracle"),
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


# the modules that read and write the document's normal blocks; the
# engine walks `FixedComponent.normal`, one (weight, root) per direction
DOCUMENT_SHAPE = {"model", "builders"}


def test_only_the_document_modules_read_normal_blocks():
    readers = {path.stem for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(
                   encoding="utf-8")))
               if isinstance(node, ast.Attribute)
               and node.attr in ("blocks", "chern_roots")}
    assert readers == DOCUMENT_SHAPE


def test_only_the_division_raises_not_a_polynomial():
    # every command's exit 3 comes from dividing the character, so no
    # other module certifies the data inconsistent a second way
    raisers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if "NotAPolynomial" in (getattr(exc, "id", None),
                                        getattr(exc, "attr", None)):
                    raisers.add(path.stem)
    assert raisers == {"zrational"}


# the failures `cli.main` maps to an exit code and a stderr line
FAILURES = {"InputError", "ParseError", "Unsupported", "NotAPolynomial",
            "CancellationError", "OverflowError", "MemoryError"}


def test_only_cli_main_catches_a_failure():
    # main's one handler catches the types of its table, `_FAILURES`; the
    # one other handler that names a failure is verify's, which counts a
    # failed division as a failed check
    from equiloc import cli
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    caught = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for handler in ast.walk(fn):
                if isinstance(handler, ast.ExceptHandler) and handler.type:
                    caught.update(
                        (fn.name, getattr(node, "id", None)
                         or getattr(node, "attr", None))
                        for node in ast.walk(handler.type))
    assert {(fn, name) for fn, name in caught if name in FAILURES} == {
        ("_verify_one", "NotAPolynomial")}
    assert ("main", "_FAILURES") in caught
    assert {kind.__name__ for kinds, _, _ in cli._FAILURES
            for kind in kinds} == FAILURES - {"ParseError"}


def test_oracles_share_no_code_with_the_character():
    # no name in the oracle families reads a module that computes
    # characters, or a function that does
    forbidden = {"localization", "quantize", "useries", "witten",
                 "character", "chi_tilde", "to_laurent_polynomial"}
    for name in ("families.py", "curve_bundles.py"):
        tree = ast.parse(Path(__file__).with_name(name).read_text(
            encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = set((node.module or "").split("."))
            elif isinstance(node, ast.alias):
                used = set(node.name.split("."))
            else:
                used = {getattr(node, "id", None), getattr(node, "attr", None)}
            assert not used & forbidden, (name, node.lineno)
