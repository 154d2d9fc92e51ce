"""Rules on the package source: one eigensolver path, sympy only in tests."""

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
