"""The package's contract: "no floats, no runtime dependencies, no memo
tables", a fixed public surface, and a README example that runs."""

import ast
import copy
import hashlib
import importlib
import json
import operator
import os
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ROW_COLUMNS, frozen_record_cells, record_json_dict, replace_row, row_of
import selbergdim
from selbergdim import cli, exactnum

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


# What importing some modules loads, of the three the CLI's start-up leaves
# out, in a fresh ``python -S``: no site, so no .pth file imports anything.
_PROBE = "import sys, {}; print(*{{'dataclasses', 'inspect', 'typing'}} & sys.modules.keys())"


def _loaded_by(modules: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE.format(modules)], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return set(out.split())


def test_the_cli_starts_without_dataclasses_inspect_or_typing():
    # With what they import, the three took about 15 ms of every CLI call's
    # start-up (Python 3.11, 2 vCPUs, warm bytecode cache). Only what the
    # stdlib modules the CLI imports load on this interpreter is allowed.
    floor = _loaded_by("argparse, fractions, json, math, re, itertools, operator, collections.abc")
    assert _loaded_by("selbergdim.cli") <= floor


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


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_imported_name_is_used(path):
    # __init__.py imports only to re-export, and __future__ names are flags.
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} imports {name}" for name, line in imported.items()
              if name not in used]
    assert not unused


def _is_int_literal(node: ast.expr | None) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_row_is_indexed_by_an_int_literal(path):
    # Every position in a row derives from dims._ROW_FIELDS, so no literal
    # index goes stale when a field moves.
    literal = []
    for node in ast.walk(_tree(path)):
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "row"):
            continue
        index = node.slice
        bounds = (index.lower, index.upper) if isinstance(index, ast.Slice) else (index,)
        if any(map(_is_int_literal, bounds)):
            literal.append(f"{path.name}:{node.lineno}")
    assert not literal


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


# Every public entry point that takes a number, with a float in each of its
# number arguments in turn: (name, call of the float, the exception, whether
# the message names the value). A rational argument goes through
# exactnum.as_fraction, which raises TypeError naming the value; an int one
# is refused by its own check or by the stdlib op it reaches.
def _float_at(name: str, args: tuple, i: int):
    """Call the public ``name`` on ``args`` with the float in place of ``args[i]``."""
    return lambda f: getattr(selbergdim, name)(*args[:i], f, *args[i + 1:])


_HALVES = (Fraction(1, 2), Fraction(1, 3), Fraction(5, 2))
_FLOAT_CASES = [
    ("format_rational", _float_at("format_rational", (1,), 0), TypeError, True),
    ("is_integer", _float_at("is_integer", (1,), 0), TypeError, True),
    ("parse_rational", _float_at("parse_rational", ("1",), 0), ValueError, True),
    ("pochhammer", _float_at("pochhammer", (1, 1), 0), TypeError, True),
    ("pochhammer", _float_at("pochhammer", (1, 1), 1), TypeError, False),
    ("binom", _float_at("binom", (3, 1), 0), TypeError, False),
    ("binom", _float_at("binom", (3, 1), 1), TypeError, False),
    # A float r or s fails the range test 0 <= s < r or the range() after it.
    *[
        ("hockey_stick_check", _float_at("hockey_stick_check", (3, 1), i), (TypeError, ValueError),
         False)
        for i in range(2)
    ],
    ("HypParams3F2", lambda f: selbergdim.HypParams3F2((f, -1, 1), (1, 1)), TypeError, True),
    ("HypParams3F2", lambda f: selbergdim.HypParams3F2((-1, 1, 1), (1, f)), TypeError, True),
    ("HypParams3F2", _float_at("HypParams3F2", ((-1, 1, 1), (1, 1), 1), 2), TypeError, True),
    *[
        # as_fraction names a float a, b or c, and the checks' own test a float j;
        # pfaff_saalschutz_rhs refuses a float j in range(), which does not name it.
        (name, _float_at(name, (*_HALVES, 2), i), TypeError, i < 3 or name != "pfaff_saalschutz_rhs")
        for name in ("pfaff_saalschutz_rhs", "pfaff_saalschutz_check", "contiguity_residual")
        for i in range(4)
    ],
    *[
        (
            "pochhammer_identity_residual",
            _float_at("pochhammer_identity_residual", (*_HALVES[:2], 2), i),
            TypeError,
            i < 2,
        )
        for i in range(3)
    ],
    *[
        (name, _float_at(name, (4, 5, 3)[:arity], i), selbergdim.DomainError, True)
        for name, arity in [
            ("DimQuery", 3), ("dim_D", 2), ("dim_K_recursion", 3), ("dim_K_reduction", 3),
            ("dim_K_closed", 3), ("dim_I_sum", 3), ("dim_I_hyp", 3), ("dim_I_extremes", 2),
            ("dim_I_full_resonance_product", 2),
        ]
        for i in range(arity)
    ],
    *[
        (name, lambda f, name=name, i=i: getattr(selbergdim, name)(
            *[(1, f) if k == i else (1, 2) for k in range(2)]), selbergdim.DomainError, True)
        for name in ("iter_table", "table")
        for i in range(2)
    ],
    ("ExponentConfig", _float_at("ExponentConfig", (2, 1, [1]), 0), ValueError, True),
    ("ExponentConfig", _float_at("ExponentConfig", (2, 1, [1]), 1), TypeError, True),
    ("ExponentConfig", lambda f: selbergdim.ExponentConfig(2, 1, [1, f]), TypeError, True),
    *[
        (
            "config_from_json",
            lambda f, field=field: selbergdim.config_from_json(
                {"m": 2, "g": "1", "lambdas": ["1"], field: f}
            ),
            selbergdim.ConfigParseError,
            True,
        )
        for field in ("m", "g")
    ],
    ("Lcg", _float_at("Lcg", (0,), 0), TypeError, False),
    ("run_suites", _float_at("run_suites", ("hockey", 0), 1), ValueError, True),
    ("run_suites", _float_at("run_suites", ("pfaff", 0, 2), 2), ValueError, True),
    # lambdas as the str or bytes of the float is refused whole, not split
    # into its characters. Last, so the ids above keep their index.
    ("ExponentConfig", lambda f: selbergdim.ExponentConfig(2, 1, repr(f)), TypeError, True),
    ("ExponentConfig", lambda f: selbergdim.ExponentConfig(2, 1, repr(f).encode()), TypeError, True),
]
# The public names that take no number of their own: exceptions, result
# records, the stdlib Fraction itself, and functions of a value that a
# name above builds and checks.
_TAKE_NO_NUMBER = {
    "Rational", "HyperEvalError", "NonTerminatingError", "PoleBeforeTerminationError",
    "ZeroDenominatorError", "DomainError", "AssumptionViolatedError", "ConfigParseError",
    "DimensionRecord", "Violation", "ResonanceReport", "SuiteResult", "__version__",
    "eval_terminating_3f2", "compute_record", "classify", "dims_for_config",
    "config_to_json_dict",
}


def test_float_cases_cover_every_public_name():
    assert {name for name, *_ in _FLOAT_CASES} | _TAKE_NO_NUMBER == set(PACKAGE_ALL)


@pytest.mark.parametrize("value", [0.1, 2.0, -0.0, 1e300], ids=repr)
@pytest.mark.parametrize(
    "call,exc,named", [case[1:] for case in _FLOAT_CASES],
    ids=[f"{case[0]}-{i}" for i, case in enumerate(_FLOAT_CASES)],
)
def test_no_public_entry_point_takes_a_float(call, exc, named, value):
    with pytest.raises(exc) as info:
        call(value)
    if named:
        assert repr(value) in str(info.value)


class _Sub(Fraction):
    pass


@pytest.mark.parametrize(
    "value,text", [(3, "3"), (-2, "-2"), (True, "1"), (False, "0"), (Fraction(-13, 12), "-13/12"),
                   (_Sub(4, 6), "2/3"), (_Sub(6, 3), "2")],
    ids=repr,
)
def test_exact_values_still_convert(value, text):
    assert exactnum.as_fraction(value) == Fraction(text)
    assert type(exactnum.as_fraction(value)) is Fraction
    assert selbergdim.format_rational(value) == text
    assert selbergdim.is_integer(value) == ("/" not in text)
    assert selbergdim.pochhammer(value, 1) == Fraction(text)


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


# sha256 of large CLI outputs, taken before the K rows were sized to the query.
# A change of algorithm must not move a single byte of any of them. The exit
# code is 2 where the n = 1 hyp_error records make the routes disagree. The
# dims record (2, 1, 1), whose I_hyp cell is empty because hyp_error is set,
# was added while every record CSV line still went through the per-cell
# quoting rule.
TABLE_CSV_SHA256 = {
    "all": (2, "561fc34bf99888866da08ad4689c042f024eeb5ba4601379041e045d13570458"),
    "only-n": (2, "569e24bbb2c4913536b5004730d293889f2098e60752c2711e68e4d16b79da7c"),
    "only-n-minus-1": (0, "6a0ae92d98a777aaf451db72435457c8345cc802ad328b5837bc1fc73684105c"),
    "dims -m 2 -n 1 -r 1": (2, "9ac683412c66a52952280dae0bfcc0625d248866830633e327aa257c2c05e33d"),
}
# The same grids as JSON, taken while each item still went through a dict
# and json's encoder. The n = 1 records of "all" and "only-n" carry
# hyp_error strings.
TABLE_JSON_SHA256 = {
    "all": (2, "4424afb4c7fdca6752abf2f0c60f0f1c82df4a1ceefcb3023c28c4b685240f26"),
    "only-n": (2, "b1a98d1c00b50fe52cf008a3544d0d980ae83e20bf1a1c840720c9d232b3b504"),
    "only-n-minus-1": (0, "e8765b87f9614c7bd80f87ed27926aef93e1c347bc85777e4ea54b314f1d4c94"),
}
# The same grids as the pretty table, taken before the table writers took
# blocks: each column padded to its widest cell, of every row.
TABLE_PRETTY_SHA256 = {
    "all": (2, "4faa7dc1747859eaaf0ad1f36d9ec7a0e6fcc62850d11527693a0f5ca05c2423"),
    "only-n": (2, "3757094dd80efc7dfbcad8dbafaee5d4edc25bde5e40d74c6edf01579820b478"),
    "only-n-minus-1": (0, "073dd3822923e696d3aa68e9d3ba8aaabcd68231525c237710a27a27539664a4"),
}
# Each point's exit code and JSON, in this order, under one sha256.
DIMS_SHA256 = "94ba1b2ccb1ca6a680dff2770e7d813473028932d8a564ddc5858c7f6241c3d6"
# m = 200 - 37i mod 200 visits every m in 1..200 once and n = 80 - 53i mod 80
# every n in 1..80; r strides over 0..n.
DIMS_POINTS = [
    (200 - 37 * i % 200, n, n - 29 * i % (n + 1)) for i in range(200) for n in [80 - 53 * i % 80]
]


@pytest.mark.parametrize("key", TABLE_CSV_SHA256)
def test_table_csv_digest_is_pinned(run_cli, key):
    if key.startswith("dims "):
        argv = tuple(key.split())
    else:
        argv = ("table", "--m-range", "1..40", "--n-range", "1..30", "--r-policy", key)
    code, out, err = run_cli(*argv, "--format", "csv")
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TABLE_CSV_SHA256[key]


@pytest.mark.parametrize("r_policy", TABLE_JSON_SHA256)
def test_table_json_digest_is_pinned(run_cli, r_policy):
    argv = ("table", "--m-range", "1..40", "--n-range", "1..30", "--r-policy", r_policy)
    code, out, err = run_cli(*argv, "--format", "json")
    assert err == ""
    # Only the n = 1 hyp_error records make the routes disagree here.
    assert ('"hyp_error": "' in out) == (code == 2)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TABLE_JSON_SHA256[r_policy]


@pytest.mark.parametrize("r_policy", TABLE_PRETTY_SHA256)
def test_table_pretty_digest_is_pinned(run_cli, r_policy):
    argv = ("table", "--m-range", "1..40", "--n-range", "1..30", "--r-policy", r_policy)
    code, out, err = run_cli(*argv, "--format", "pretty")
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TABLE_PRETTY_SHA256[r_policy]


def test_dims_json_digest_is_pinned(run_cli):
    digest = hashlib.sha256()
    for m, n, r in DIMS_POINTS:
        argv = ("dims", "-m", str(m), "-n", str(n), "-r", str(r))
        code, out, err = run_cli(*argv, "--format", "json")
        assert err == ""
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == DIMS_SHA256


# sha256 of `dims --format json` at deep points, taken while each K triangle
# still computed its own D levels: the top of the m <= 200, n <= 80 grid at
# r = n-5, n-1 and n, and a huge m at each small r. Every point exits 0.
DEEP_DIMS_SHA256 = {
    (185, 75, 70): "347946a20e67b82512224020778a98682ba3018f05202b957e3782ca215d4ea5",
    (185, 75, 74): "a52569e470743209d0db2b65389fbbfca2e437cb0a2f04494f41dd6010fe6261",
    (185, 75, 75): "32bc85116c652f8711b0b7790485ac228de67fcc717d7beff41e6c574bf59607",
    (185, 78, 73): "31c2dca949c872d28252f8fc076e6fa10e9bac5073ac78bec1bf30a4cf512e3d",
    (185, 78, 77): "1904c0eca01e6f75f43d42690261f70a91b0ee1d991bae609132b44535ef5719",
    (185, 78, 78): "70cfa50aff430b4ff9d45658460f165865b30bf3ef5b5153d262d3025daef6d9",
    (185, 80, 75): "b025a13e2047efe6fb0ee0891eea23301166f2e83904f1118670c32cb10d4347",
    (185, 80, 79): "45c1ea709786300fce62a3d4f3177757e65ade08cd2f2a255b7c1971e0c036e9",
    (185, 80, 80): "cd53556a5be707bd9aa07a3590f58ac0464a4de5cc02456637f130ca9599e869",
    (192, 75, 70): "6a2c1bf2ca0c4b617f80b8398955724f3fcbadf0d304e6c55cdb2c889f694c10",
    (192, 75, 74): "4cfbb09b4b0c104496c3422735e8adb22820c849fc899b6f20ad7be569bab967",
    (192, 75, 75): "e0edb9f02ffce77558bb7d21ade0c19c2f3448abddeed743bb640089ec233fcc",
    (192, 78, 73): "1aeff65704f91e76f698679b685e89b5234de8dd2718c2216a52d2d64290f6df",
    (192, 78, 77): "fb48c9477383fcc85fea5a007c7e333df29534d308916c879db98c63bdd460aa",
    (192, 78, 78): "63fea2e12fc4900cf22c6900810ddf6b653118def407dc9f9a69ee20750c5df4",
    (192, 80, 75): "b17745936fdb61be9345c3523c4e0783d7646537a8edd8a8cf62bbe52479bf78",
    (192, 80, 79): "6301f50af6c5c1bc050e7e1c84c40c955f35ff05fd44adff68f15a9231370e36",
    (192, 80, 80): "349d42a3f1b48870ba750d1bfcd10338f5646ec1eacc9805029b6c0aa4536118",
    (200, 75, 70): "164c1ff0d21a2160672f2768b77edccbbd058a7c18af92a21620c4a1d39fd6d3",
    (200, 75, 74): "6bd8e1ed594a78bc13c7b9d629ff9a68d249802ad668da729b1eacc80f6f7a3e",
    (200, 75, 75): "43cc42ab431486e9bdaceeb4d1c5f2c7f87cc9f2c63225804ec7ee204a9a8841",
    (200, 78, 73): "c2b2e75f0d78d3ed41f01dceb5c46ad916dafdc082a7925d3c002d674482ea6f",
    (200, 78, 77): "83198829e8ed3761791e1d351c46402316714465bb5d17f99a0ac7362ad83052",
    (200, 78, 78): "083a37b2ee987915ce2b23070899397f5162f8b3f32287fa570d1939633a2fa2",
    (200, 80, 75): "341313e52a881e4d0aaea64f676c82afdceaaad4f8b6b3d9c6c9537973e8976a",
    (200, 80, 79): "d858705559dec7f282014fd7812dcaaaafd79be98a63740a86a069ff59575227",
    (200, 80, 80): "b115cc7f179ddf4c048687f87222ace813f65f0e4c7bd978b119a55a4707428d",
    (10**13, 3, 0): "314ada51fc3deb3ddb5f8dab0c48a7d7ad0a55239eec5801031ae5cf8de123fd",
    (10**13, 3, 1): "3a52983de20681b6b3722f106a4f89ed94a0fac854c75f72780457904d9faa80",
    (10**13, 3, 2): "b1eda8a18bea47692e2dced83adada21f9f33f53884cd222150b010971bd4824",
    (10**6, 80, 0): "ddf15924334581ca01d08266e276a05c428538f5f1150fabf7b10086c1ec6cc3",
    (10**6, 80, 1): "b1cd9d04401fb15498f70b0ee5a81fd47610c70df16ef1fcfa15ec9ac08544a6",
    (10**6, 80, 2): "077aa99ffd8d0111cd850d067263342dac5c4d7837e3b80f0a8b079fbfbb9446",
    (10**6, 80, 3): "48f8a9b44718c2e80dc6892f7637f8325d5284774c345dcf9d89613546620d00",
}


@pytest.mark.parametrize("point", DEEP_DIMS_SHA256, ids=lambda point: "%d-%d-%d" % point)
def test_deep_dims_json_digest_is_pinned(run_cli, point):
    m, n, r = map(str, point)
    code, out, err = run_cli("dims", "-m", m, "-n", n, "-r", r, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_DIMS_SHA256[point]


# sha256 of the seeded suites' JSON output, taken before the suites drew
# scaled ints; every run exits 0. The counts, the skips and so the LCG draw
# order must not move a byte.
VERIFY_SHA256 = {
    "pfaff --seed 11 --cases 5000":
        "558b53d74c3888eaf42c69d751bcb7351753db5c966b7f19b9952b1f4ef62602",
    "contiguity --seed 11 --cases 2000":
        "d08706b79804ade0d479d8a4000dcec65a9c191e8eeef3a471a3e70e5803002e",
    "pochhammer --seed 11 --cases 2000":
        "90d675ec891eac8272986d899cc7570282eea6e5b1ff4c2ed2c6172e1b91f03a",
    "all --seed 0": "b1468910331637624e70ba9a75cc62153a115338712c762e9243a29d1178b786",
    "all --seed 1": "06a13f226e012f959482fcc6565eb2d66a4974702c104a47cc39dcfe676390e3",
    "all --seed 2": "99205a791081b79201987ec738ea0c9baf61d5553d65686417aadc9126e91bd5",
    "all --seed 3": "44bb3c216b0d2e87719c341f501c06b1a8976809811237e3738d203ad1b084a8",
    "all --seed 4": "c1925b4c5765367320ac88a453778f43778cbe62192077d6fef9ddac0a7bdd94",
}


@pytest.mark.parametrize("args", VERIFY_SHA256)
def test_verify_json_digest_is_pinned(run_cli, args):
    code, out, err = run_cli("verify", *args.split(), "--format", "json")
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, VERIFY_SHA256[args])


def _classify_configs():
    """60 fixed configurations: 20 valid, 40 violating.

    Plain arithmetic, no randomness. Every third configuration mixes in
    resonant lambdas ``(t - g)/2`` and integral ones; every tenth has an
    integral g, and g = 0 occurs.
    """
    for i in range(60):
        m = 1 + i % 7
        den = (11, 13, 17, 19, 23, 4, 6, 9)[i % 8]
        g = Fraction(i * 13 % 17 - 8, 1 if i % 10 == 9 else den)
        lambdas = []
        for j in range(1 + i * 5 % 6):
            kind = (i + j) % 11 if i % 3 == 0 else None
            if kind == 3:
                lambdas.append((j - i % 3 - g) / 2)
            elif kind == 7:
                lambdas.append(Fraction(j - 2))
            else:
                lambdas.append(Fraction((i * 31 + j * 17) % 41 - 20, den))
        yield selbergdim.ExponentConfig(m=m, g=g, lambdas=tuple(lambdas))


# sha256 of each configuration's exit code and `classify` output, in the
# order above, taken while classify still tested Fraction values. The
# exit codes are 0 for the 20 valid configurations and 3 for the others.
CLASSIFY_SHA256 = {
    "json": "f347f06052381eb914fb04582e92023cab12bc44bee738f0dcde715aee82c349",
    "csv": "d7e8bca1d34746cea0a5d381c018224d4a269b583b9c3969e509b4b9bd9da366",
    "pretty": "d0815312cd1b4bc46154c3563dfe94be9d553d8f6508c07e8b8e0c6f272c4b26",
}


@pytest.mark.parametrize("fmt", CLASSIFY_SHA256)
def test_classify_digest_is_pinned(run_cli, tmp_path, fmt):
    digest = hashlib.sha256()
    codes = []
    for i, cfg in enumerate(_classify_configs()):
        path = tmp_path / f"config-{i}.json"
        path.write_text(json.dumps(selbergdim.config_to_json_dict(cfg)), encoding="utf-8")
        code, out, err = run_cli("classify", str(path), "--format", fmt)
        assert err == ""
        codes.append(code)
        digest.update(f"{code}\n{out}".encode())
    assert (codes.count(0), codes.count(3)) == (20, 40)
    assert digest.hexdigest() == CLASSIFY_SHA256[fmt]


def test_dims_json_is_json_dumps_of_the_record(run_cli):
    # (2, 1, 1) is the small point whose hyp_error is a string, not null.
    rec = selbergdim.compute_record(selbergdim.DimQuery(2, 1, 1))
    assert isinstance(rec.hyp_error, str)
    code, out, err = run_cli("dims", "-m", "2", "-n", "1", "-r", "1", "--format", "json")
    assert (code, err) == (2, "")
    assert out == json.dumps(record_json_dict(rec), indent=2) + "\n"


def _unchecked_query(m: int, n: int, r: int) -> selbergdim.DimQuery:
    # A DimQuery with any ints: the writer must not rely on the domain.
    query = object.__new__(selbergdim.DimQuery)
    for name, value in (("m", m), ("n", n), ("r", r)):
        object.__setattr__(query, name, value)
    return query


# Ints of either sign up to the default int-to-str limit of 4,300 digits.
_INTS = st.one_of(st.integers(), st.integers(-(10**4300 - 1), 10**4300 - 1))
_FRACTIONS = st.one_of(
    st.fractions(),
    st.builds(Fraction, _INTS),
    st.builds(Fraction, _INTS, _INTS.filter(bool)),
)
# Any text, lone surrogates and control characters included.
_TEXT = st.text(st.characters(exclude_categories=()))
_RECORDS = st.builds(
    selbergdim.DimensionRecord,
    query=st.builds(_unchecked_query, _INTS, _INTS, _INTS),
    D=_INTS,
    K_recursion=_INTS,
    K_reduction=_INTS,
    K_closed=_INTS,
    I_sum=_INTS,
    I_hyp=st.one_of(st.none(), _FRACTIONS),
    I_subtract=_INTS,
    hyp_error=st.one_of(st.none(), _TEXT, st.sampled_from(['"', "\\", "\x00\n\t", "é", "\ud800"])),
    routes_agree=st.booleans(),  # K and I are None when false
    in_validity_range=st.booleans(),
)


@given(_RECORDS)
def test_record_json_is_json_dumps_indent_2(rec):
    # The writers take the record's row; the reference reads the record itself,
    # K and I through its properties.
    doc, row = record_json_dict(rec), row_of(rec)
    assert cli._record_json(row, 0) == json.dumps(doc, indent=2)
    assert "[\n" + cli._record_json(row, 1) + "\n]" == json.dumps([doc], indent=2)
    assert cli._DIMS_RENDERERS["json"](row) == json.dumps(doc, indent=2) + "\n"
    # A block row keeps an integral I_hyp as the int, which writes the same.
    if rec.I_hyp is not None and rec.I_hyp.denominator == 1:
        int_row = replace_row(row, I_hyp=rec.I_hyp.numerator)
        assert cli._record_json(int_row, 1) == cli._record_json(row, 1)


_I_HYP = ROW_COLUMNS.index("I_hyp")
# The values of a row's fields by name; every field not named here is an int.
_ROW_VALUES = {
    "I_hyp": st.one_of(st.none(), _INTS, _FRACTIONS),  # an int from a block, a Fraction from a record
    "hyp_error": st.one_of(st.none(), _TEXT),
    "routes_agree": st.booleans(),
    "in_validity_range": st.booleans(),
}
_ROWS = st.tuples(*(_ROW_VALUES.get(name, _INTS) for name in ROW_COLUMNS))
# One field past the limit: an int field, m to I_subtract, or I_hyp as an
# int, as an integral Fraction or as a Fraction with a long denominator.
# Its int, sign (10^(4300 + extra) + residue), is drawn as these parts,
# which print, and built in the test body: an example that holds an int
# past the limit could not be printed in a failure report.
_PAST_LIMIT_KINDS = {
    "int": operator.mul,
    "integral Fraction": lambda sign, size: Fraction(sign * size),
    "long denominator": Fraction,
}
_PAST_LIMIT_FIELD = st.tuples(
    st.one_of(
        st.tuples(
            st.sampled_from([i for i, name in enumerate(ROW_COLUMNS) if name not in _ROW_VALUES]),
            st.just("int"),
        ),
        st.tuples(st.just(_I_HYP), st.sampled_from(list(_PAST_LIMIT_KINDS))),
    ),
    st.sampled_from([1, -1]),  # the sign
    st.integers(0, 100),  # the extra digits
    st.integers(0, 10**4300 - 1),  # the residue
)


# A row of ints up to 4,300 digits each can outgrow Hypothesis' input buffer;
# such draws are discarded, so that health check would fail a passing test.
@settings(deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(_ROWS, st.one_of(st.none(), _PAST_LIMIT_FIELD))
def test_record_csv_is_csv_row_of_the_cells(row, past_limit):
    if past_limit is not None:
        # Both sides raise the limit's ValueError.
        (index, kind), sign, extra, residue = past_limit
        value = _PAST_LIMIT_KINDS[kind](sign, 10 ** (4300 + extra) + residue)
        row = row[:index] + (value,) + row[index + 1:]
        with pytest.raises(ValueError):
            cli._csv_row(frozen_record_cells(row))
        with pytest.raises(ValueError):
            cli._record_csv(row)
        return
    want = cli._csv_row(frozen_record_cells(row))
    assert cli._record_csv(row) == want
    assert cli._record_cells(row) == frozen_record_cells(row)
    assert cli._DIMS_RENDERERS["csv"](row) == cli._csv_row(cli.CSV_COLUMNS) + "\n" + want + "\n"


# The immutable value classes, each with the values of one instance by field
# name, in field order, its exact repr (which shows the values as the class
# converts them: an int I_hyp or 3F2 parameter as its Fraction), the
# arguments its own checks refuse with their errors, and the fields left to
# their defaults when only the first values are given. ExtremeImageDims is a
# named tuple, so it equals the plain tuple of its values as well.
_VALUE_CASES = [
    (selbergdim.DimQuery, {"m": 4, "n": 5, "r": 3}, "DimQuery(m=4, n=5, r=3)",
     [((1, 2, 3), selbergdim.DomainError), ((0, 2, 1), selbergdim.DomainError),
      ((True, 2, 1), selbergdim.DomainError)], {}),
    (selbergdim.DimensionRecord,
     {"query": selbergdim.DimQuery(2, 4, 4), "D": 5, "K_recursion": 1, "K_reduction": 1,
      "K_closed": 1, "I_sum": 4, "I_hyp": 4, "I_subtract": 4, "hyp_error": None,
      "routes_agree": True, "in_validity_range": True},
     "DimensionRecord(query=DimQuery(m=2, n=4, r=4), D=5, K_recursion=1, K_reduction=1, "
     "K_closed=1, I_sum=4, I_hyp=Fraction(4, 1), I_subtract=4, hyp_error=None, "
     "routes_agree=True, in_validity_range=True)",
     [], {}),
    (selbergdim.HypParams3F2,
     {"upper": (Fraction(-2), 1, 2), "lower": (3, 4), "argument": Fraction(1, 2)},
     "HypParams3F2(upper=(Fraction(-2, 1), Fraction(1, 1), Fraction(2, 1)), "
     "lower=(Fraction(3, 1), Fraction(4, 1)), argument=Fraction(1, 2))",
     [(((1, 2), (3, 4)), ValueError), (((1, 2, 3), (4,)), ValueError),
      (((1, 2, 3), (4, 5), 0.5), TypeError)], {"argument": Fraction(1)}),
    (selbergdim.ExponentConfig,
     {"m": 2, "g": Fraction(1, 3), "lambdas": (Fraction(1, 5), Fraction(-2, 7))},
     "ExponentConfig(m=2, g=Fraction(1, 3), lambdas=(Fraction(1, 5), Fraction(-2, 7)))",
     [((0, Fraction(1, 3), (Fraction(1, 5),)), ValueError), ((2, Fraction(1, 3), ()), ValueError),
      ((2, Fraction(1, 3), "1/5"), TypeError), ((2, 0.5, (1,)), TypeError)], {}),
    (selbergdim.Violation, {"condition": "point", "k": 2, "value": Fraction(3), "j": 1},
     "Violation(condition='point', k=2, value=Fraction(3, 1), j=1)",
     [], {"j": None}),
    (selbergdim.ResonanceReport,
     {"resonant_indices": (1,), "lambda_infinity": Fraction(-1, 2),
      "violations": (selbergdim.Violation("diagonal", 2, Fraction(1)),)},
     "ResonanceReport(resonant_indices=(1,), lambda_infinity=Fraction(-1, 2), "
     "violations=(Violation(condition='diagonal', k=2, value=Fraction(1, 1), j=None),))",
     [], {}),
    (selbergdim.SuiteResult,
     {"suite": "pfaff", "passed": 3, "failed": 1, "skipped": 2, "counterexample": "a=1 b=2"},
     "SuiteResult(suite='pfaff', passed=3, failed=1, skipped=2, counterexample='a=1 b=2')",
     [], {}),
    (selbergdim.dims.ExtremeImageDims, {"at_n": 3, "at_n_minus_1": 4},
     "ExtremeImageDims(at_n=3, at_n_minus_1=4)",
     [], {}),
]


@pytest.mark.parametrize(
    "cls,named,text,invalid,defaults", _VALUE_CASES, ids=[case[0].__name__ for case in _VALUE_CASES]
)
def test_value_classes_build_compare_print_and_stay_frozen(cls, named, text, invalid, defaults):
    names, values = tuple(named), tuple(named.values())
    assert cls.__match_args__ == names
    value = cls(*values)
    assert tuple(getattr(value, name) for name in names) == values
    assert cls(**named) == value and cls(*values[:1], **dict(list(named.items())[1:])) == value
    assert repr(value) == text
    # The values given for all but the defaulted fields, which read their defaults.
    short = cls(*values[: len(values) - len(defaults)])
    assert {name: getattr(short, name) for name in defaults} == defaults
    for args, exc in invalid:
        with pytest.raises(exc):
            cls(*args)
    with pytest.raises(TypeError):
        cls(*values[:-1 - len(defaults)])  # a missing value
    with pytest.raises(TypeError):
        cls(*values, bogus=1)  # an unknown field
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})  # a value given twice
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one value too many

    assert hash(value) == hash(values) == hash(cls(*values))
    assert value != types.SimpleNamespace(**named)
    if not issubclass(cls, tuple):
        # Equal only to an instance of its own class, not to its values or a subclass's.
        assert value != values
        assert value != type("Sub", (cls,), {})(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == values

    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and repr(copied) == text
    with pytest.raises(AttributeError):
        setattr(copy.deepcopy(value), names[0], values[0])
