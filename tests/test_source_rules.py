"""Rules on the package source: one eigensolver path, sympy only in tests,
no ``assert`` statements, which ``python -O`` strips, and one home for the
integer-numerator helpers."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "compalg"
EIGEN_CALL = re.compile(r"\blinalg\s*\.\s*(eig|eigh|eigvals|eigvalsh)\b")
EIGEN_IMPORT = re.compile(r"from\s+numpy\.linalg\s+import\s[^\n]*\b(eig|eigh|eigvals|eigvalsh)\b")
SYMPY_IMPORT = re.compile(r"^\s*(import|from)\s+sympy\b", re.MULTILINE)
RULES = (EIGEN_CALL, EIGEN_IMPORT, SYMPY_IMPORT)


def _violations(text):
    return [m.group(0) for rule in RULES for m in rule.finditer(text)]


def test_rules_catch_what_they_forbid():
    assert _violations("w = np.linalg.eigvalsh(a)\n")
    assert _violations("from numpy.linalg import norm, eigh\n")
    assert _violations("    import sympy as sp\n")
    assert not _violations("n = np.linalg.norm(a)\nw = hermitian_eigenvalues(a)\n")


def test_package_uses_own_eigensolver_and_no_sympy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {f.name: v for f in files if (v := _violations(f.read_text()))}
    assert found == {}


def _asserts(text):
    return [node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assert)]


def test_assert_rule_catches_an_assert():
    assert _asserts("def f(x):\n    assert x > 0, 'x'\n    return x\n") == [2]
    assert not _asserts("if not x > 0:\n    raise AssertionError('x')\n")


def test_package_checks_survive_python_O():
    found = {f.name: v for f in sorted(SRC.rglob("*.py")) if (v := _asserts(f.read_text()))}
    assert found == {}


RATIONAL_HELPERS = ("_over_lcm", "_ratio", "_split")


def _helper_defs(text):
    """Names from RATIONAL_HELPERS that the source defines or assigns."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sorted(names & set(RATIONAL_HELPERS))


def test_helper_rule_catches_a_second_definition():
    assert _helper_defs("def _ratio(n, d):\n    return n / d\n") == ["_ratio"]
    assert _helper_defs("class C:\n    def _split(self, v):\n        return v\n") == ["_split"]
    assert _helper_defs("_over_lcm = lambda d: d\n") == ["_over_lcm"]
    assert not _helper_defs("from .phasepoly import _over_lcm, _ratio\nx = _ratio(1, 2)\n")


def test_rational_helpers_are_defined_only_in_phasepoly():
    found = {f.name: d for f in sorted(SRC.rglob("*.py")) if (d := _helper_defs(f.read_text()))}
    assert found == {"phasepoly.py": sorted(RATIONAL_HELPERS)}
