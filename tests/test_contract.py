"""The package's contract: "no floats, no runtime dependencies, no memo
tables", a fixed public surface, and a README example that runs."""

import ast
import importlib
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import selbergdim

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "selbergdim").glob("*.py"))
PUBLIC_MODULES = ("exactnum", "hyper", "dims", "resonance", "suites")

PACKAGE_ALL = [
    "Rational", "parse_rational", "format_rational", "is_integer", "pochhammer", "binom",
    "hockey_stick_check",
    "HypParams3F2", "HyperEvalError", "NonTerminatingError", "PoleBeforeTerminationError",
    "ZeroDenominatorError", "eval_terminating_3f2", "pfaff_saalschutz_rhs",
    "pfaff_saalschutz_check", "contiguity_residual", "pochhammer_identity_residual",
    "DomainError", "DimQuery", "DimensionRecord", "dim_D", "dim_K_recursion", "dim_K_reduction",
    "dim_K_closed", "dim_I_sum", "dim_I_hyp", "dim_I_extremes", "dim_I_full_resonance_product",
    "compute_record", "iter_table", "table",
    "ExponentConfig", "Violation", "ResonanceReport", "AssumptionViolatedError",
    "ConfigParseError", "classify", "dims_for_config", "config_from_json", "config_to_json_dict",
    "Lcg", "SuiteResult", "run_suites",
    "__version__",
]


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


def test_package_all_is_pinned():
    assert selbergdim.__all__ == PACKAGE_ALL


def test_public_names_are_the_modules_all():
    # Submodules (cli too, once something imports it) are attributes as well.
    public = {
        name
        for name, value in vars(selbergdim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(PACKAGE_ALL) - {"__version__"}
    for stem in PUBLIC_MODULES:
        module = importlib.import_module(f"selbergdim.{stem}")
        for name in module.__all__:
            assert getattr(selbergdim, name) is getattr(module, name), f"{stem}.{name}"


def test_init_names_no_public_function_or_class():
    # Each public name is declared once, in its module's __all__; the package
    # takes them from there and spells none of them out.
    named = set()
    for node in ast.walk(_tree(ROOT / "src" / "selbergdim" / "__init__.py")):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named.add(node.name)
    assert named & set(PACKAGE_ALL) == {"__version__"}


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    *body, last = ast.parse(block).body
    namespace = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), "README.md", "exec"), namespace)
    rec, report = namespace["rec"], namespace["report"]
    assert (rec.D, rec.K, rec.I) == (35, 27, 8)
    assert rec.routes_agree
    assert (report.r, report.lambda_infinity) == (1, Fraction(-13, 12))
    assert isinstance(last, ast.Expr)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace) == Fraction(8, 35)
