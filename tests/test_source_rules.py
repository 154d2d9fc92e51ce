"""Rules on the package source: one eigensolver path, sympy only in tests,
no ``assert`` statements, which ``python -O`` strips, one home for the
integer-numerator helpers, no def that nothing reaches, no error type
that nothing raises, no suite name outside the suite registry, and one
Gaussian draw path."""

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


RATIONAL_HELPERS = ("_add", "_lowest", "_over_lcm", "_ratio", "_scale", "_split")


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
    assert _helper_defs("def _lowest(den, nums):\n    return den, nums\n") == ["_lowest"]
    assert _helper_defs("def _add(x, y):\n    return x\n\n\n_scale = None\n") == ["_add", "_scale"]
    assert not _helper_defs("from .phasepoly import _over_lcm, _ratio\nx = _ratio(1, 2)\n")


def test_rational_helpers_are_defined_only_in_phasepoly():
    found = {f.name: d for f in sorted(SRC.rglob("*.py")) if (d := _helper_defs(f.read_text()))}
    assert found == {"phasepoly.py": sorted(RATIONAL_HELPERS)}


# A public def that no suite, no other package code, no benchmark and no
# acceptance criterion reaches serves no claim of the report; a private def
# that no other package code reaches is test-only code in the package.
REACHING = [*sorted((SRC.parents[1] / "perfbench").glob("*.py")),
            SRC.parents[1] / "tests" / "test_acceptance.py"]
UNREACHED_BY_DESIGN = {
    "envariance.bell_state": "the maximally entangled state a Bell/CHSH suite starts from",
}


def _names(node):
    """Identifiers, attribute names, imported names and identifier strings
    (``getattr`` targets) used under `node`."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add((n.asname or n.name).rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def _unreferenced(package, outside):
    """`module.name` of each top-level def or class in `package` (module
    name -> source) that no other top-level statement of the package refers
    to and, for a public name, none of the `outside` sources either."""
    stmts = [(mod, s) for mod, text in package.items() for s in ast.parse(text).body]
    uses = [(s, _names(s)) for _, s in stmts]
    used_outside = set().union(*(_names(ast.parse(t)) for t in outside))
    return [f"{mod}.{s.name}" for mod, s in stmts
            if isinstance(s, (ast.FunctionDef, ast.ClassDef))
            and (s.name.startswith("_") or s.name not in used_outside)
            and not any(s.name in names for t, names in uses if t is not s)]


def test_reach_rule_flags_an_unreferenced_def():
    package = {"m": "def used():\n    return 1\n\n\ndef unused():\n    return unused() + used()\n",
               "n": "from .m import used\n\n\nclass Orphan:\n    pass\n"}
    assert _unreferenced(package, []) == ["m.unused", "n.Orphan"]
    assert _unreferenced(package, ["from compalg.n import Orphan\ngetattr(m, 'unused')\n"]) == []
    # a private def counts as reached only from inside the package
    private = {"m": "def _helper():\n    return 1\n\n\ndef _used():\n    return 2\n",
               "n": "from .m import _used\n"}
    assert _unreferenced(private, ["from compalg.m import _helper\n"]) == ["m._helper"]


def test_every_public_def_is_reached():
    package = {f.stem: f.read_text() for f in sorted(SRC.glob("*.py"))}
    found = _unreferenced(package, [p.read_text() for p in REACHING])
    assert sorted(found) == sorted(UNREACHED_BY_DESIGN)


def _raised(text):
    """Names of the exception types that the `raise` statements in `text` raise."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def _unraised(errors, sources):
    """Classes of the `errors` source, other than CompalgError, that no
    `raise` in `sources` raises."""
    raised = set().union(*map(_raised, sources))
    return [s.name for s in ast.parse(errors).body
            if isinstance(s, ast.ClassDef) and s.name != "CompalgError" and s.name not in raised]


def test_error_rule_flags_an_unraised_type():
    errors = ("class CompalgError(Exception):\n    pass\n\n\n"
              "class Used(CompalgError):\n    pass\n\n\nclass Leftover(CompalgError):\n    pass\n")
    caught = "try:\n    f()\nexcept Leftover:\n    raise Used('f failed')\n"
    assert _unraised(errors, [caught]) == ["Leftover"]
    assert _unraised(errors, [caught, "raise errors.Leftover from None\n"]) == []


def test_every_error_type_is_raised():
    sources = [f.read_text() for f in sorted(SRC.rglob("*.py"))]
    assert _unraised((SRC / "errors.py").read_text(), sources) == []


def _suite_names_in_functions(text):
    """String literals in the function bodies of `text` that equal a key of
    its top-level ``SUITES`` dict: a suite is named only in the registry."""
    tree = ast.parse(text)
    keys = {k.value for s in tree.body if isinstance(s, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "SUITES" for t in s.targets)
            for k in s.value.keys}
    return sorted(n.value for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))
                  for n in ast.walk(f) if isinstance(n, ast.Constant) and n.value in keys)


def test_suite_name_rule_flags_a_runner_that_names_its_suite():
    registry = '\n\nSUITES = {"kahler": (_suite_kahler, "flat triple", "pass")}\n'
    named = 'def _suite_kahler(cfg, seed):\n    return _result("kahler", True, 1)\n'
    assert _suite_names_in_functions(named + registry) == ["kahler"]
    outcome = 'def _suite_kahler(cfg, seed):\n    return _result(True, 1)\n'
    assert _suite_names_in_functions(outcome + registry) == []


def test_cli_names_each_suite_only_in_its_registry():
    text = (SRC / "cli.py").read_text()
    assert _suite_names_in_functions(text) == []
    # the rule reads cli.py's own registry
    assert _suite_names_in_functions(text + 'def _f():\n    return "kahler"\n') == ["kahler"]


def _gauss_calls(text):
    """Line numbers of the ``gauss(...)`` calls in `text`: every Gaussian
    draw of the package goes through ``hilbert._gauss_draws``, which makes
    the ``random.gauss`` stream without calling ``gauss``."""
    return [n.lineno for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Call)
            and (getattr(n.func, "attr", None) == "gauss" or getattr(n.func, "id", None) == "gauss")]


def test_gauss_rule_flags_a_gauss_call():
    assert _gauss_calls("x = rng.gauss(0, 1)\n") == [1]
    assert _gauss_calls("from random import gauss\n\nx = [gauss(0, 2.0)]\n") == [3]
    draws = 'def f(rng):\n    """rng.gauss(0, 1) per draw"""\n    return _gauss_draws(rng, 4, 1)\n'
    assert _gauss_calls(draws) == []


def test_package_draws_gaussians_in_one_place():
    found = {f.name: v for f in sorted(SRC.rglob("*.py")) if (v := _gauss_calls(f.read_text()))}
    assert found == {}
