"""The family registry is the only place that knows a scheme by name.

* No module outside :mod:`repro.predictors.families` compares a ``scheme``
  name or a ``.scheme`` attribute with a string or a tuple of strings —
  a new family is one module and one registry entry, nothing else.
* Every registered family round-trips ``parse`` -> ``canonical`` ->
  ``parse`` and has exactly one vector recipe.
* :mod:`repro.predictors` imports :mod:`repro.sim` only inside functions
  (the recipes), never at module level.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.predictors.families import FAMILIES, family_of
from repro.predictors.spec import parse_spec

SRC = Path(repro.__file__).resolve().parent
FAMILIES_DIR = SRC / "predictors" / "families"

#: one configuration string per registered scheme
EXAMPLES = {
    "AlwaysTaken": "taken",
    "AlwaysNotTaken": "AlwaysNotTaken",
    "BTFN": "btfn",
    "Profile": "profiling",
    "GAg": "GAg(8)",
    "gshare": "gshare( 10 , LT )",
    "Perceptron": "perceptron(12)",
    "TAGE": "TAGE(3,7)",
    "PAp": "PAp(6,A2)",
    "PAs": "PAs(6,4,A2)",
    "AT": "AT(AHRT(512,12SR),PT(2^12,A2))",
    "ST": "ST(HHRT(256,8SR),PT(256,PB),diff)",
    "LS": "LS(IHRT(,LT),,)",
}


def _is_scheme(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "scheme") or (
        isinstance(node, ast.Attribute) and node.attr == "scheme"
    )


def _is_strings(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_is_strings(element) for element in node.elts)
    return False


def scheme_branches(root: Path, exclude: Path):
    """``path:line`` of every scheme-name comparison under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if exclude in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(map(_is_scheme, operands)) and any(map(_is_strings, operands)):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_no_scheme_branch_outside_the_registry():
    assert scheme_branches(SRC, FAMILIES_DIR) == []


def test_guard_sees_a_scheme_branch(tmp_path):
    (tmp_path / "module.py").write_text(
        "def f(spec, scheme, other):\n"
        "    if spec.scheme == 'AT' or spec.scheme != other:\n"
        "        return scheme in ('GAg', 'gshare')\n"
    )
    assert scheme_branches(tmp_path, tmp_path / "families") == [
        "module.py:2",
        "module.py:3",
    ]


def test_predictors_import_sim_lazily():
    module_level = []
    for path in sorted((SRC / "predictors").rglob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.startswith("repro.sim") for name in names):
                module_level.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert module_level == []


def test_every_family_has_an_example():
    assert set(EXAMPLES) == set(FAMILIES)


@pytest.mark.parametrize("scheme", sorted(FAMILIES))
def test_parse_canonical_round_trip(scheme):
    family = FAMILIES[scheme]
    spec = family.parse(EXAMPLES[scheme].strip())
    assert spec is not None and spec.scheme == scheme
    assert family_of(spec) is family
    canonical = family.canonical(spec)
    again = parse_spec(canonical)
    assert family_of(again) is family
    assert family.canonical(again) == canonical


@pytest.mark.parametrize("scheme", sorted(FAMILIES))
def test_exactly_one_vector_recipe(scheme):
    family = FAMILIES[scheme]
    recipes = [family.direct_mask, family.scan_request]
    assert sum(recipe is not None for recipe in recipes) == 1


@pytest.mark.parametrize("scheme", sorted(FAMILIES))
def test_other_families_decline_the_example(scheme):
    text = EXAMPLES[scheme].strip()
    claimed = [
        other.scheme for other in FAMILIES.values() if other.parse(text) is not None
    ]
    assert claimed == [scheme]
