"""The package's modules form layers: each imports only modules of the layers below."""

import ast
from pathlib import Path

import padicqft

PACKAGE = Path(padicqft.__file__).parent
ORDER = ("ultrametric", "reporting", "model", "wick", "lattice", "sampler", "verify", "cli")
ENTRY_POINTS = ("__init__", "__main__")  # above every layer


def _package_imports(path: Path) -> set:
    """The package modules a source file imports, however the import is written."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:  # from .x import y, from . import x
                base = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "padicqft":
                base = node.module.partition(".")[2]  # from padicqft[.x] import ...
            else:
                continue
            found.update([base] if base else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("padicqft."))
    return {name.split(".")[0] for name in found if name}


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(ORDER) | set(ENTRY_POINTS)


def test_modules_import_only_earlier_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        imports = _package_imports(path)
        if path.stem in ENTRY_POINTS:
            assert imports <= set(ORDER), path.name
            continue
        earlier = set(ORDER[: ORDER.index(path.stem)])
        assert imports <= earlier, f"{path.name} imports {sorted(imports - earlier)}"


def test_imports_are_found():
    # the layers above read real imports: wick reads ultrametric and model, cli nearly all
    assert _package_imports(PACKAGE / "wick.py") == {"model", "ultrametric"}
    assert _package_imports(PACKAGE / "cli.py") == {"lattice", "model", "sampler", "ultrametric",
                                                     "verify", "wick"}
