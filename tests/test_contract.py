"""The package's "no floats, no runtime dependencies, no memo tables" contract."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "selbergdim").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"dims.py", "hyper.py", "suites.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_the_package(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.partition(".")[0]
            assert top in sys.stdlib_module_names or top == "selbergdim", (
                f"{path.name}:{node.lineno} imports {module}"
            )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_literals_or_float_calls(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (
                f"{path.name}:{node.lineno} has the float literal {node.value!r}"
            )
        assert not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        ), f"{path.name}:{node.lineno} calls float()"


def test_no_module_attribute_is_a_cache():
    # The scan of bench/passes.package_caches: every module of the package,
    # each attribute followed through __wrapped__, looking for cache_clear.
    for path in SOURCES:
        if path.stem != "__main__":  # importing it runs the CLI
            suffix = "" if path.stem == "__init__" else f".{path.stem}"
            importlib.import_module(f"selbergdim{suffix}")
    caches = []
    for name, module in list(sys.modules.items()):
        if name != "selbergdim" and not name.startswith("selbergdim."):
            continue
        for attr, value in vars(module).items():
            while not hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if hasattr(value, "cache_clear"):
                caches.append(f"{name}.{attr}")
    assert caches == []
