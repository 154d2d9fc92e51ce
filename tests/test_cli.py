import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from compalg import scalars
from compalg.cli import (
    SUITES,
    SuiteConfig,
    config_echo,
    diff_reports,
    main,
    parse_config,
    report_json,
    report_md,
    run,
)
from compalg.errors import ConfigError, EigenFailure, SchemaMismatch
from test_algebra import _with_extra_a

FAST_SUITES = ["split-complex-geometry", "minimizer-no-go", "quantions"]


def fast_cfg(**kw):
    cfg = SuiteConfig(suites=list(FAST_SUITES), identity_count=4, pair_count=20)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_parse_config_valid():
    cfg = parse_config(
        """
        # comment line
        suites = kahler, quantions
        seed = 7
        hbar = 1/2, 2
        pair_count = 50
        record_timings = true
        """
    )
    assert cfg.suites == ["kahler", "quantions"]
    assert cfg.seed == 7
    assert cfg.hbar == [Fraction(1, 2), Fraction(2)]
    assert cfg.pair_count == 50
    assert cfg.record_timings is True


@pytest.mark.parametrize("word, value", [("1", True), ("YES", True), ("True", True),
                                         ("0", False), ("no", False), ("FALSE", False)])
def test_record_timings_takes_six_words_in_any_case(word, value):
    assert parse_config(f"record_timings = {word}").record_timings is value


def test_config_echo_is_every_field_but_the_run_settings():
    echo = config_echo(SuiteConfig(hbar=[Fraction(1, 2)], report="r.md", format="md"))
    assert set(echo) == {f.name for f in fields(SuiteConfig)} - {"report", "format", "record_timings"}
    assert echo["hbar"] == ["1/2"] and echo["suites"] == ["all"] and echo["pair_count"] == 200


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("no_such_option = 1")


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("just some words")
    with pytest.raises(ConfigError):
        parse_config("pair_count = 0")
    with pytest.raises(ConfigError):
        parse_config("suites = no-such-suite")
    with pytest.raises(ConfigError):
        parse_config("format = yaml")


def test_suite_registry_contents():
    required = {
        "identities-elliptic-phase",
        "identities-parabolic-phase",
        "identities-hyperbolic-phase",
        "identities-hilbert",
        "composition-monoid",
        "falsify-nonzero-a",
        "ghost-hyperbolic",
        "positivity-elliptic",
        "kahler",
        "berezin",
        "quantions",
        "envariance-reflexivity",
        "envariance-symmetry",
        "envariance-transitivity",
    }
    assert required <= set(SUITES)
    for name, (_, anchor, expected) in SUITES.items():
        assert anchor and expected in ("pass", "fail")


def test_run_is_deterministic():
    a = report_json(run(fast_cfg()))
    b = report_json(run(fast_cfg()))
    assert a == b


def test_expected_failures_count_as_pass():
    rep = run(fast_cfg())
    by_name = {s["name"]: s for s in rep["suites"]}
    assert by_name["minimizer-no-go"]["expected"] == "fail"
    assert by_name["minimizer-no-go"]["verdict"] == "pass"
    assert rep["verdict"] == "pass"


def test_minimizer_suite_reports_the_points_it_checked(monkeypatch):
    monkeypatch.setattr("compalg.cli.revalidate_witness", lambda w: 7)
    rep = run(fast_cfg(suites=["minimizer-no-go"]))
    assert rep["suites"][0]["samples"] == 7


def test_minimizer_suite_validates_the_witness_once(monkeypatch):
    original, calls = scalars.revalidate_witness, []

    def counting(w, lattice=101):
        calls.append(lattice)
        return original(w, lattice)

    for module in ("compalg.scalars", "compalg.cli"):
        monkeypatch.setattr(f"{module}.revalidate_witness", counting)
    rep = run(fast_cfg(suites=["minimizer-no-go"]))
    assert calls == [101]
    assert rep["suites"][0]["samples"] == 101


def test_md_report_shape():
    out = report_md(run(fast_cfg()))
    assert out.startswith("# verification report")
    assert "| minimizer-no-go |" in out
    assert "overall: **pass**" in out


def test_diff_reports():
    a = run(fast_cfg())
    b = run(fast_cfg())
    assert diff_reports(a, b) == {"changed_suites": [], "metadata_only": False}
    b2 = json.loads(report_json(b))
    b2["suites"][0]["verdict"] = "fail"
    delta = diff_reports(a, b2)
    assert delta["changed_suites"] == [b2["suites"][0]["name"]]
    # wall time differences are not changes
    b3 = json.loads(report_json(run(fast_cfg())))
    b3["suites"][0]["wall_ms"] = 123.4
    assert diff_reports(a, b3)["changed_suites"] == []
    # tool version drift alone is metadata only
    b4 = json.loads(report_json(run(fast_cfg())))
    b4["tool"] = "9.9.9"
    assert diff_reports(a, b4) == {"changed_suites": [], "metadata_only": True}


def test_diff_schema_mismatch():
    a = run(fast_cfg())
    b = json.loads(report_json(a))
    b["version"] = 2
    with pytest.raises(SchemaMismatch):
        diff_reports(a, b)


@pytest.mark.parametrize("text", ["{}", "[]", '{"suites": 1}', '{"suites": [1]}', '{"version": 1}'])
def test_diff_of_a_non_report_is_a_schema_mismatch(tmp_path, capsys, text):
    # valid JSON that is not a report exits 2, not 1 ("suites changed") with a traceback
    good = tmp_path / "r.json"
    assert main(["verify", "--suite", "kahler", "--report", str(good)]) == 0
    other = tmp_path / "other.json"
    other.write_text(text)
    with pytest.raises(SchemaMismatch):
        diff_reports(json.loads(good.read_text()), json.loads(text))
    assert main(["diff", str(good), str(other)]) == 2
    assert main(["diff", str(other), str(other)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not a report") and "Traceback" not in err


def test_main_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "suites = split-complex-geometry, quantions\npair_count = 20\n"
    )
    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    assert main(["verify", "--config", str(cfg), "--report", str(rep1)]) == 0
    assert main(["verify", "--config", str(cfg), "--report", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    assert main(["diff", str(rep1), str(rep2)]) == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense = 1\n")
    assert main(["verify", "--config", str(bad)]) == 2
    assert main(["diff", str(rep1), str(tmp_path / "missing.json")]) == 2

    assert main(["suites"]) == 0
    out = capsys.readouterr().out
    assert "ghost-hyperbolic" in out and "berezin" in out


def test_main_suite_flag(tmp_path):
    rep = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--suite",
            "split-complex-geometry",
            "--report",
            str(rep),
            "--format",
            "json",
        ]
    )
    assert code == 0
    data = json.loads(rep.read_text())
    assert [s["name"] for s in data["suites"]] == ["split-complex-geometry"]


def test_positivity_suites_report_computed_samples():
    rep = run(fast_cfg(suites=["ghost-hyperbolic", "positivity-elliptic"]))
    suites = {s["name"]: s for s in rep["suites"]}
    ghost = suites["ghost-hyperbolic"]
    # the first ghost at hbar = 2 is the 4th lexicographic lattice point
    assert ghost["samples"] == 4 and ghost["witness"]["coeffs"] == [-2, -2, -2, -2, 1]
    elliptic = suites["positivity-elliptic"]
    assert elliptic["samples"] == 2 * 5**5 and elliptic["witness"]["min_value"] == "0"


def test_raising_suite_is_an_error_not_a_crash(monkeypatch, capsys, tmp_path):
    def raises(cfg, seed):
        raise EigenFailure("Jacobi sweeps did not converge")

    _, anchor, expected = SUITES["minimizer-no-go"]
    monkeypatch.setitem(SUITES, "minimizer-no-go", (raises, anchor, expected))
    rep = run(fast_cfg())
    suites = {s["name"]: s for s in rep["suites"]}
    err = suites["minimizer-no-go"]
    assert err["verdict"] == "error" and err["samples"] == 0
    assert err["failures"] == [{"error": "EigenFailure: Jacobi sweeps did not converge"}]
    # the other suites still ran
    assert [suites[n]["verdict"] for n in ("split-complex-geometry", "quantions")] == ["pass", "pass"]
    assert rep["verdict"] == "error"
    assert "overall: **error**" in report_md(rep)
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", "minimizer-no-go", "--suite", "split-complex-geometry",
                 "--report", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["verdict"] == "error"
    assert "EigenFailure" in capsys.readouterr().err


def test_run_stamps_the_registry_entry_onto_the_record(monkeypatch):
    # a runner registered under a second key reports that key, on the error path too
    runner, _, _ = SUITES["minimizer-no-go"]
    monkeypatch.setitem(SUITES, "minimizer-copy", (runner, "a second anchor", "pass"))
    monkeypatch.setitem(SUITES, "raising-copy", (lambda cfg, seed: 1 / 0, "a third anchor", "fail"))
    rep = run(fast_cfg(suites=["minimizer-copy", "raising-copy"]))
    got = [(s["name"], s["anchor"], s["expected"], s["verdict"]) for s in rep["suites"]]
    assert got == [("minimizer-copy", "a second anchor", "pass", "pass"),
                   ("raising-copy", "a third anchor", "fail", "error")]


def test_hilbert_suite_honours_dim_cap():
    for dim_cap, dims in ((3, [3]), (8, [4, 8])):
        rep = run(fast_cfg(suites=["identities-hilbert"], dim_cap=dim_cap, identity_count=2))
        (suite,) = rep["suites"]
        assert suite["verdict"] == "pass"
        # nine identities on two tuples per carrier, and two C*-checks
        assert suite["samples"] == len(dims) * 9 * 2 + 2


def test_hilbert_suite_checks_the_cstar_identity(monkeypatch):
    from compalg import hilbert

    cfg = fast_cfg(suites=["identities-hilbert"], identity_count=3)
    (suite,) = run(cfg)["suites"]
    assert suite["verdict"] == "pass" and suite["samples"] == 2 * 9 * 3 + 3
    # an eigensolver that does no rotation reads the norms off the diagonal
    monkeypatch.setattr(hilbert, "hermitian_eigenvalues", lambda a: np.sort(np.diagonal(a).real))
    (suite,) = run(cfg)["suites"]
    assert suite["verdict"] == "fail"
    assert suite["failures"] == [{"law": "cstar", "sample": i} for i in range(3)]


def test_falsify_suite_counts_the_sweeps_that_ran(monkeypatch):
    from compalg import algebra

    def fake(a, b, extras, count, seed):
        # the sweep for a = -1 ran its full 50 samples without a counterexample
        return [
            algebra.IdentityReport("leibniz-alpha", a.name, 50 if x == -1 else 3,
                                   [{"sample": 0}] if x and x != -1 else [],
                                   expected="fail" if x else "pass")
            for x in extras
        ]

    monkeypatch.setattr(algebra, "falsify_sweep", fake)
    (suite,) = run(fast_cfg(suites=["falsify-nonzero-a"]))["suites"]
    assert suite["samples"] == 3 + 50 + 3 + 3
    assert suite["verdict"] == "fail" and suite["expected"] == "fail"
    assert suite["witness"] == [{"a": "1", "counterexamples": 1}, {"a": "1/2", "counterexamples": 1}]
    # the fail record names the sweep that missed
    assert suite["failures"] == [{"a": "-1", "counterexamples": 0}]


def test_falsify_suite_reports_the_a0_residual(monkeypatch):
    """The report's max_residual is the a = 0 sweep's: 0 while the composite
    law holds, above 0 once it is broken."""
    from compalg import algebra

    cfg = fast_cfg(suites=["falsify-nonzero-a"])
    (suite,) = run(cfg)["suites"]
    assert suite["verdict"] == "pass" and suite["max_residual"] == 0.0
    # a composite skew product that carries 1/3 alpha1 alpha2 even at a = 0
    monkeypatch.setattr(algebra, "compose_bipartite", lambda a, b: _with_extra_a(a, b, Fraction(1, 3)))
    (suite,) = run(cfg)["suites"]
    assert suite["verdict"] == "fail" and suite["max_residual"] > 0.0
    assert [f["a"] for f in suite["failures"]] == ["0"] and suite["failures"][0]["counterexamples"] > 0


def test_positivity_suite_fail_record_lists_the_minimum(monkeypatch):
    monkeypatch.setattr("compalg.moyalpos.elliptic_control_sweep", lambda hbar, bound, levels: -1)
    (suite,) = run(fast_cfg(suites=["positivity-elliptic"]))["suites"]
    assert suite["verdict"] == "fail" and suite["failures"] == [{"min_value": "-1"}]
    assert suite["witness"] == {"min_value": "-1"}


def test_berezin_suite_checks_positivity_preservation(monkeypatch):
    from compalg import berezin

    (suite,) = run(fast_cfg(suites=["berezin"]))["suites"]
    # unit, two ladders, correspondence, and the quantized q^2 and q^2 + p^2
    assert suite["verdict"] == "pass" and suite["samples"] == 6
    monkeypatch.setattr(berezin, "positivity_preservation", lambda qf, tol: False)
    (suite,) = run(fast_cfg(suites=["berezin"]))["suites"]
    assert suite["verdict"] == "fail"
    assert suite["failures"] == [{"law": "positivity", "f": "q^2"}, {"law": "positivity", "f": "q^2+p^2"}]


def test_berezin_suite_fails_without_the_factorial_normalization(monkeypatch):
    from math import factorial

    from compalg import berezin

    real_quantize = berezin.berezin_quantize

    def unnormalized(f, hbar, N, grid):
        # amplitudes e^{-|a|^2/2} a^n without their 1/sqrt(n!): entry (m, n)
        # grows by sqrt(m! n!)
        root = np.sqrt([float(factorial(n)) for n in range(N)])
        return real_quantize(f, hbar, N, grid) * np.outer(root, root)

    monkeypatch.setattr(berezin, "berezin_quantize", unnormalized)
    (suite,) = run(fast_cfg(suites=["berezin"]))["suites"]
    assert suite["verdict"] == "fail"
    assert "ladder" in [f["law"] for f in suite["failures"]]


def test_identity_table_fail_record_lists_each_failing_sample(monkeypatch):
    """A carrier whose skew product is doubled breaks the identities that are
    not homogeneous in it; the record lists every failing sample of every
    carrier, stamped with the carrier and identity it failed."""
    from compalg import algebra

    made, real_carrier = [], algebra.phase_poly_carrier

    def doubled(*args):
        good = real_carrier(*args)
        made.append(dataclasses.replace(good, alpha=lambda f, g: good.scale(good.alpha(f, g), Fraction(2))))
        return made[-1]

    monkeypatch.setattr(algebra, "phase_poly_carrier", doubled)
    cfg = fast_cfg(suites=["identities-elliptic-phase"], identity_count=2, degree_cap=2)
    (suite,) = run(cfg)["suites"]
    want = [(rep.carrier, rep.identity, f["sample"], f["witness"])
            for c in made for rep in algebra.check_all_identities(c, 2, cfg.seed) for f in rep.failures]
    assert suite["verdict"] == "fail" and want
    assert [(f["carrier"], f["identity"], f["sample"], f["witness"]) for f in suite["failures"]] == want


# sha256 of the default `compalg verify` JSON report at seed 0; a change that
# moves a byte of it updates this pin and says why in CHANGES.md
DEFAULT_REPORT_SHA256 = "2f168585a840c124855854654cd34ca1b201e8ef86d0a3aa15183bc41ebb577c"


def test_default_report_bytes_are_pinned():
    text = report_json(run(parse_config("")))
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256


def test_python_m_compalg_runs_from_a_checkout(tmp_path):
    # `python -m compalg` with only src/ on the path, as from a fresh checkout
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "compalg", "verify", "--suite", "kahler", "--format", "json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "pass"


@pytest.mark.parametrize("line", ["seed = abc", "pair_count = x", "hbar = 1/0", "record_timings = ture"])
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"# malformed value\n{line}\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:") and "Traceback" not in err


def test_a_flag_overrides_a_bad_config_value(tmp_path):
    # the config is validated after the flags are applied, not before
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("format = yaml\n")
    rep = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg), "--format", "json", "--suite", "kahler",
                 "--report", str(rep)]) == 0
    assert [s["name"] for s in json.loads(rep.read_text())["suites"]] == ["kahler"]


def test_a_bad_config_value_without_a_flag_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("format = yaml\n")
    assert main(["verify", "--config", str(cfg), "--suite", "kahler"]) == 2
    assert capsys.readouterr().err == "error: unknown format 'yaml'\n"


def test_parse_config_validates_after_the_flags():
    assert parse_config("format = yaml", {"format": "md", "seed": None}).format == "md"
    assert parse_config("seed = 3", {"seed": None}).seed == 3
    with pytest.raises(ConfigError, match="unknown suite"):
        parse_config("", {"suites": ["nope"]})
    with pytest.raises(ConfigError, match="unknown format"):
        parse_config("format = yaml")


@pytest.mark.parametrize("hbar", ["0", "-1"])
def test_non_positive_hbar_is_a_config_error(tmp_path, capsys, hbar):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"suites = positivity-elliptic, ghost-hyperbolic\nhbar = {hbar}\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: hbar must be positive\n"


def test_empty_suite_list_is_a_config_error(tmp_path, capsys):
    # a config that selects no suite would run nothing and still pass
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("suites = ,\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: no suites to run\n"


@pytest.mark.parametrize("n", [1, 4])
def test_too_small_berezin_n_is_a_config_error(tmp_path, capsys, n):
    # the berezin suite quantizes q and p, which needs N >= deg + 4 = 5
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"suites = berezin\nberezin_n = {n}\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: berezin_n must be at least 5\n" and "Traceback" not in err
    cfg.write_text("suites = berezin\nberezin_n = 5\n")
    assert main(["verify", "--config", str(cfg), "--report", str(tmp_path / "r.json")]) == 0


def test_quantions_suite_checks_the_factorization(monkeypatch):
    from compalg import quantion

    (suite,) = run(fast_cfg(suites=["quantions"]))["suites"]
    # 20 + 20 sampled quantions and the 70 monomials of degree <= 4 in x0..x3
    assert suite["verdict"] == "pass" and suite["samples"] == 2 * 20 + 70

    ops = quantion._np_ops

    def flipped(P):  # delta-bar = d1 + i d2, the sign of its i d2 flipped
        D, delta, _, Delta = ops(P)
        return D, delta, delta, Delta

    monkeypatch.setattr(quantion, "_np_ops", flipped)
    (suite,) = run(fast_cfg(suites=["quantions"]))["suites"]
    bad = [f["monomial"] for f in suite["failures"] if f.get("law") == "factorization"]
    # the mutant breaks every monomial with x2^2 or x1 x2: 15 + 10 of them
    assert suite["verdict"] == "fail" and len(bad) == 25 and bad[0] == [0, 0, 2, 0]


def test_split_geometry_suite_checks_the_reversed_triangle(monkeypatch):
    (suite,) = run(fast_cfg(suites=["split-complex-geometry"]))["suites"]
    assert suite["verdict"] == "pass" and suite["witness"]["triangle_admissible"] > 0
    monkeypatch.setattr("compalg.cli.check_reversed_triangle", lambda z, w: False)
    (suite,) = run(fast_cfg(suites=["split-complex-geometry"]))["suites"]
    assert suite["verdict"] == "fail"
    assert [f["law"] for f in suite["failures"]] == ["triangle"] * 20


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _gated_suites(source: str) -> set:
    """Suite names the benchmark's verify gate reads: EXACT_SUITES, the first
    field of each witness check, and every literal tested with `in suites`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("EXACT_SUITES", "checks") for t in node.targets
        ):
            for elt in node.value.elts:
                names.add(ast.literal_eval(elt.elts[0] if isinstance(elt, ast.Tuple) else elt))
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
              and isinstance(node.ops[0], ast.In)
              and isinstance(node.comparators[0], ast.Name) and node.comparators[0].id == "suites"):
            names.add(node.left.value)
    return names


def test_gate_rule_catches_a_renamed_suite():
    source = WORKLOADS.read_text()
    names = _gated_suites(source)
    assert {"composition-monoid", "falsify-nonzero-a", "ghost-hyperbolic", "minimizer-no-go",
            "quantions", "positivity-elliptic"} <= names
    assert _gated_suites('if "x-suite" in suites:\n    pass\n') == {"x-suite"}
    for old in ("minimizer-no-go", "composition-monoid", "falsify-nonzero-a"):
        renamed = _gated_suites(source.replace(f'"{old}"', '"renamed-suite"'))
        assert renamed - set(SUITES) == {"renamed-suite"}, old


def test_benchmark_gate_names_only_registered_suites():
    assert _gated_suites(WORKLOADS.read_text()) - set(SUITES) == set()
