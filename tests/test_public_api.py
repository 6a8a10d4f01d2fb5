"""Every public function of the package has a caller in the package.

A public module-level function that only the tests call is API kept for
the tests: a second entry to a computation whose one-pass reader the checks
already use.  Tests read those passes directly instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qident"
MODULES = ("scalar", "series", "askey_wilson", "linalg", "identities", "cli")
# p_n expanded to monomials: the oracle the tests check p_n's values and
# leading coefficient against, kept for a check of p_n against the classical
# moments
TEST_ORACLES = {"aw_poly_as_polynomial"}


def public_functions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def names_in_code(tree: ast.Module) -> set[str]:
    """Every name that code reads: a bare name or an attribute, not a def."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_function_is_named_by_package_code():
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    callers = [tree for stem, tree in package.items() if stem != "__init__"]
    named = set().union(*map(names_in_code, callers))
    public = set().union(*(public_functions(package[module]) for module in MODULES))
    assert sorted(public - named - TEST_ORACLES) == []
