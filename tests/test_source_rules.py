"""Rules on the package source: one eigensolver path, sympy only in tests,
and no ``assert`` statements, which ``python -O`` strips."""

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
