"""Verification harness: named suites, flat-file config, JSON/markdown reports.

Every suite is a pure function of (config, seed) and the report is
serialized with sorted keys and no timing data, so identical inputs give
byte-identical JSON.  Expected-fail suites (the no-go results) count as
passing exactly when they produce their witness.  A suite that raises is
recorded with verdict "error" and the other suites still run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import pi

import numpy as np

from . import __version__, algebra, berezin, envariance, hilbert, moyalpos, quantion
from .errors import (
    CompalgError,
    ConfigError,
    PreconditionViolated,
    SchemaMismatch,
)
from .phasepoly import CLASSES, ELLIPTIC, PhasePoly, hbar_zero_limit, poisson
from .scalars import (
    SplitComplex,
    check_polarization_parallelogram,
    check_reversed_triangle,
    minimizer_nonuniqueness_witness,
    para_cauchy_schwarz_holds,
    revalidate_witness,
)

SCHEMA_VERSION = 1


# a per-invocation setting: how this run writes its report, left out of the
# report's config echo
_RUN_SETTING = {"echo": False}


@dataclass
class SuiteConfig:
    suites: list = field(default_factory=lambda: ["all"])
    seed: int = 0
    hbar: list = field(default_factory=lambda: [Fraction(2)])
    degree_cap: int = 4
    dim_cap: int = 6
    ghost_bound: int = 2
    berezin_n: int = 16
    identity_count: int = 25
    pair_count: int = 200
    report: str = field(default="", metadata=_RUN_SETTING)
    format: str = field(default="json", metadata=_RUN_SETTING)
    record_timings: bool = field(default=False, metadata=_RUN_SETTING)


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# key -> parser of its value; a key not listed here takes an int
_PARSERS = {
    "suites": lambda val: [s.strip() for s in val.split(",") if s.strip()],
    "hbar": lambda val: [Fraction(s.strip()) for s in val.split(",")],
    "report": str,
    "format": str,
    "record_timings": lambda val: _FLAGS[val.lower()],
}
_CONFIG_KEYS = {f.name for f in fields(SuiteConfig)}


def parse_config(text: str, flags: dict | None = None) -> SuiteConfig:
    """Flat key = value lines; '#' comments; lists comma-separated.

    A value in `flags` that is not None overrides the key it is named by,
    as a command-line flag does; the config is validated once, after that.
    """
    cfg = SuiteConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip().strip('"')
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _PARSERS.get(key, int)(val))
        except (ValueError, ZeroDivisionError, KeyError):  # KeyError: not a flag word
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from None
    for key, value in (flags or {}).items():
        if key in _CONFIG_KEYS and value is not None:
            setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: SuiteConfig):
    for cap in (cfg.degree_cap, cfg.dim_cap, cfg.ghost_bound, cfg.berezin_n,
                cfg.identity_count, cfg.pair_count):
        if cap <= 0:
            raise ConfigError("all caps and counts must be positive")
    # the berezin suite quantizes q and p, which needs N >= deg + 4
    if cfg.berezin_n < 5:
        raise ConfigError("berezin_n must be at least 5")
    if not cfg.suites:
        raise ConfigError("no suites to run")
    names = set(SUITES)
    for s in cfg.suites:
        if s != "all" and s not in names:
            raise ConfigError(f"unknown suite {s!r}")
    if cfg.format not in ("json", "md"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    # every class needs a positive hbar; the hbar -> 0 limit is deformation-limit's own
    if any(h <= 0 for h in cfg.hbar):
        raise ConfigError("hbar must be positive")


def config_echo(cfg: SuiteConfig) -> dict:
    """Every config field but the per-invocation settings, as JSON values."""
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.metadata.get("echo", True)}
    echo.update(suites=list(cfg.suites), hbar=[str(h) for h in cfg.hbar])
    return echo


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _result(samples, failures, max_residual=0.0, witness=None):
    """A runner's outcome, whose verdict is "fail" exactly when it lists a
    failure; `run` stamps the suite's name, anchor and expected verdict."""
    out = {
        "verdict": "fail" if failures else "pass",
        "samples": samples,
        "failures": failures,
        "max_residual": max_residual,
    }
    if witness:
        out["witness"] = witness
    return out


def _fold(reports, failures=(), samples=0):
    """The outcome of `reports` (``algebra.IdentityReport``s) after the
    `failures` of `samples` other checks: samples add up, the worst residual
    is kept, and a report that misses its verdict lists each of its failures
    stamped with its carrier and identity."""
    failures = list(failures)
    worst = 0.0
    for rep in reports:
        samples += rep.samples
        worst = max(worst, rep.max_residual)
        if not rep.passed:
            failures += ({**f, "carrier": rep.carrier, "identity": rep.identity} for f in rep.failures)
    return _result(samples, failures, worst)


def _identity_table(carriers, cfg: SuiteConfig, seed: int):
    """The identity reports of every carrier in `carriers`."""
    return (rep for c in carriers for rep in algebra.check_all_identities(c, cfg.identity_count, seed))


def _suite_identities(cls):
    def run(cfg: SuiteConfig, seed: int):
        carriers = (
            algebra.phase_poly_carrier(cls, h, dof, cfg.degree_cap)
            for h in cfg.hbar for dof in (1, 2)
        )
        return _fold(_identity_table(carriers, cfg, seed))

    return run


def _suite_hilbert(cfg: SuiteConfig, seed: int):
    rng = random.Random(seed)
    cstar = []
    for i in range(cfg.identity_count):
        t = hilbert.sample_hermitian(rng, cfg.dim_cap) + 1j * hilbert.sample_hermitian(rng, cfg.dim_cap)
        if not hilbert.cstar_check(t, 1e-10):
            cstar.append({"law": "cstar", "sample": i})
    carriers = (hilbert.matrix_carrier(dim) for dim in sorted({min(4, cfg.dim_cap), cfg.dim_cap}))
    return _fold(_identity_table(carriers, cfg, seed), cstar, cfg.identity_count)


def _suite_monoid(cfg: SuiteConfig, seed: int):
    carriers = (algebra.phase_poly_carrier(cls, cfg.hbar[0], 1, 2) for cls in CLASSES)
    count = max(4, cfg.identity_count // 3)
    return _fold(algebra.check_monoid(c, c, c, count=count, seed=seed) for c in carriers)


def _suite_falsify_a(cfg: SuiteConfig, seed: int):
    c = algebra.phase_poly_carrier(ELLIPTIC, cfg.hbar[0], 1, 3)
    extras = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(0))
    reps = algebra.falsify_sweep(c, c, extras, count=50, seed=seed)
    sweeps = [{"a": str(a), "counterexamples": len(rep.failures)} for a, rep in zip(extras, reps)]
    # the a = 0 sweep is the law that must hold exactly; the others fail by design
    missed = [s for s, rep in zip(sweeps, reps) if not rep.passed]
    witnesses = [s for s, a in zip(sweeps, extras) if a and s["counterexamples"]]
    samples = sum(rep.samples for rep in reps)
    residual = max(rep.max_residual for a, rep in zip(extras, reps) if not a)
    return _result(samples, missed, residual, witnesses)


def _suite_triviality(cfg: SuiteConfig, seed: int):
    c = algebra.phase_poly_carrier(ELLIPTIC, cfg.hbar[0], 1, 3)
    return _fold([algebra.single_product_triviality(c, count=cfg.identity_count, seed=seed)])


def _suite_deformation(cfg: SuiteConfig, seed: int):
    rng = random.Random(seed)
    bad = []
    for i in range(cfg.pair_count):
        f = algebra.sample_poly(rng, 1, cfg.degree_cap)
        g = algebra.sample_poly(rng, 1, cfg.degree_cap)
        if hbar_zero_limit(f, g) != poisson(f, g):
            bad.append({"sample": i})
    q, p = PhasePoly.q(1, 2), PhasePoly.p(1, 2)
    if poisson(q, p) != PhasePoly.const(1, 2):
        bad.append({"sample": "canonical"})
    if poisson(q, PhasePoly.p(2, 2)) != PhasePoly(2):
        bad.append({"sample": "canonical-cross"})
    return _result(cfg.pair_count + 2, bad)


def _suite_ghost(cfg: SuiteConfig, seed: int):
    try:
        w = moyalpos.ghost_search(cfg.hbar[0], cfg.ghost_bound)
        extra = {"coeffs": list(w.coeffs), "value": str(w.value_real), "g": w.canonical}
        return _result(w.evaluated, [], witness=extra)
    except CompalgError as e:
        return _result(0, [{"error": str(e)}])


def _suite_positivity(cfg: SuiteConfig, seed: int):
    levels = (0, 1)
    mn = moyalpos.elliptic_control_sweep(cfg.hbar[0], cfg.ghost_bound, levels)
    samples = len(levels) * (2 * cfg.ghost_bound + 1) ** 5
    witness = {"min_value": str(mn)}
    return _result(samples, [] if mn >= 0 else [witness], witness=witness)


def _suite_split_geometry(cfg: SuiteConfig, seed: int):
    rng = random.Random(seed)
    bad = []
    admissible = {"cauchy-schwarz": 0, "triangle": 0}
    for i in range(cfg.pair_count):
        x = SplitComplex(Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
                         Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
        y = SplitComplex(Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
                         Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
        pol, par = check_polarization_parallelogram(x, y)
        if not (pol and par):
            bad.append({"sample": i})
        for law, check in (("cauchy-schwarz", para_cauchy_schwarz_holds),
                           ("triangle", check_reversed_triangle)):
            try:
                holds = check(x, y)
            except PreconditionViolated:  # the pair is outside the inequality's domain
                continue
            admissible[law] += 1
            if not holds:
                bad.append({"sample": i, "law": law})
    return _result(
        cfg.pair_count, bad,
        witness={"cauchy_schwarz_admissible": admissible["cauchy-schwarz"],
                 "triangle_admissible": admissible["triangle"]},
    )


def _suite_minimizer(cfg: SuiteConfig, seed: int):
    try:
        w = minimizer_nonuniqueness_witness()
        checked = revalidate_witness(w)
        extra = {
            "segment": [str(w.segment[0]), str(w.segment[1])],
            "distance_square": str(w.distance_square(Fraction(0))),
        }
        return _result(checked, [], witness=extra)
    except AssertionError as e:
        return _result(0, [{"error": str(e)}])


def _suite_kahler(cfg: SuiteConfig, seed: int):
    rng = random.Random(seed)
    bad = []
    samples = 0
    for n in range(1, 6):
        tr = hilbert.build_kahler(n)
        for _ in range(20):
            x = np.array([rng.randint(-5, 5) for _ in range(2 * n)])
            y = np.array([rng.randint(-5, 5) for _ in range(2 * n)])
            samples += 1
            if not hilbert.hermitean_property_check(tr, x, y):
                bad.append({"n": n, "law": "hermitean"})
    tr = hilbert.build_kahler(2)
    for i in range(20):
        w = hilbert.sample_compatible_symplectic(rng, 2)
        x = np.array(hilbert._gauss_draws(rng, 4, 1))
        x = x / np.sqrt(x @ tr.g.astype(float) @ x)
        samples += 1
        if not hilbert.normalization_constraint_check(tr, x, w):
            bad.append({"sample": i, "law": "normalization"})
    return _result(samples, bad)


def _suite_berezin(cfg: SuiteConfig, seed: int):
    N, h = cfg.berezin_n, 1.0
    grid = berezin.build_grid(h, N, 2)
    q, p = PhasePoly.q(), PhasePoly.p()
    one = PhasePoly.const(1, 1)
    bad = []
    e1 = float(np.max(np.abs(berezin.trusted(berezin.berezin_quantize(one, h, N, grid)) - np.eye(N // 2))))
    if e1 > 1e-6:
        bad.append({"law": "identity", "err": e1})
    qq = berezin.berezin_quantize(q, h, N, grid)
    pp_ = berezin.berezin_quantize(p, h, N, grid)
    e2 = float(np.max(np.abs(berezin.trusted(qq) - berezin.trusted(berezin.ladder_position_oracle(h, N)))))
    e3 = float(np.max(np.abs(berezin.trusted(pp_) - berezin.trusted(berezin.ladder_momentum_oracle(h, N)))))
    if max(e2, e3) > 1e-6:
        bad.append({"law": "ladder", "err": max(e2, e3)})
    corr = hilbert.op_alpha(qq, pp_, h)
    k = N // 2 - 1
    e4 = float(np.max(np.abs(corr[:k, :k] - np.eye(N)[:k, :k])))
    if e4 > 1e-5:
        bad.append({"law": "correspondence", "err": e4})
    # criterion 9's squares; quantizing a degree-2 f needs N >= 6
    squares = {"q^2": q * q, "q^2+p^2": q * q + p * p} if N >= 6 else {}
    bad += [{"law": "positivity", "f": name} for name, f in squares.items()
            if not berezin.positivity_preservation(berezin.berezin_quantize(f, h, N, grid), tol=1e-9)]
    errs = (e1, e2, e3, e4)
    return _result(len(errs) + len(squares), bad, max(errs))


def _suite_quantions(cfg: SuiteConfig, seed: int):
    rng = random.Random(seed)
    bad = []
    for i in range(cfg.pair_count):
        qn = quantion.sample_quantion(rng)
        scale = max(1.0, abs(quantion.q_det(qn)) ** 2)
        if not quantion.norms_commute(qn, 1e-12 * scale):
            bad.append({"sample": i, "law": "norms-commute"})
        if not quantion.anorm(qn).future_oriented(1e-9):
            bad.append({"sample": i, "law": "future-oriented"})
    rep = quantion.rep_discovery(seed)
    for i in range(cfg.pair_count):
        qn = quantion.sample_quantion(rng)
        if not quantion.dirac_current_check(qn, rep, 1e-12):
            bad.append({"sample": i, "law": "dirac-current"})
    # both sides are linear in P, so the monomials of x0..x3 up to degree 4
    # prove the factorization for every polynomial of degree <= 4
    monomials = [e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4]
    for e in monomials:
        if not quantion.dalembertian_factorization(PhasePoly(2, {e: Fraction(1)})):
            bad.append({"law": "factorization", "monomial": list(e)})
    return _result(2 * cfg.pair_count + len(monomials), bad, witness={"gamma_rep": rep.label})


def _suite_envariance(kind):
    def run(cfg: SuiteConfig, seed: int):
        rng = random.Random(seed)
        bad = []
        count = min(cfg.pair_count, 100)
        for i in range(count):
            if kind == "transitivity":
                st = envariance.random_state(rng, 2, 2)
                phases = [rng.uniform(-pi, pi) for _ in range(2)]
                x = hilbert._gauss_draws(rng, 8, 1)
                z = [re + 1j * im for re, im in zip(x[0::2], x[1::2])]
                ok = envariance.verify_transitivity(st, phases, np.array(z[:2]), np.array(z[2:]))
            else:
                d1, d2 = rng.randint(2, 4), rng.randint(2, 4)
                st = envariance.random_state(rng, d1, d2)
                r = min(d1, d2)
                phases = [rng.uniform(-pi, pi) for _ in range(r)]
                if kind == "reflexivity":
                    winds = [rng.randint(0, 2) for _ in range(r)]
                    ok = envariance.verify_reflexivity(st, phases, winds)
                    ok = ok and envariance.winding_independence(st, phases)
                else:
                    ok = envariance.verify_symmetry(st, phases)
            if not ok:
                bad.append({"sample": i})
        return _result(count, bad)

    return run


# name -> (runner, anchor topic, expected verdict)
SUITES = {
    "identities-elliptic-phase": (_suite_identities(ELLIPTIC), "two-product identity table, sine/cosine realization", "pass"),
    "identities-parabolic-phase": (_suite_identities("parabolic"), "two-product identity table, bracket/product realization", "pass"),
    "identities-hyperbolic-phase": (_suite_identities("hyperbolic"), "two-product identity table, sinh/cosh realization", "pass"),
    "identities-hilbert": (_suite_hilbert, "two-product identity table, operator realization", "pass"),
    "composition-monoid": (_suite_monoid, "bipartite composition commutativity and associativity", "pass"),
    "falsify-nonzero-a": (_suite_falsify_a, "bipartite skew-product coefficient must vanish", "fail"),
    "single-product-triviality": (_suite_triviality, "one-product composition ansatz collapses", "pass"),
    "deformation-limit": (_suite_deformation, "classical limit of the skew product", "pass"),
    "ghost-hyperbolic": (_suite_ghost, "hyperbolic positivity failure witness", "fail"),
    "positivity-elliptic": (_suite_positivity, "elliptic positivity of the squared functional", "pass"),
    "split-complex-geometry": (_suite_split_geometry, "indefinite para-norm identities", "pass"),
    "minimizer-no-go": (_suite_minimizer, "indefinite distance minimizer non-uniqueness", "fail"),
    "kahler": (_suite_kahler, "flat compatible triple and normalization invariance", "pass"),
    "berezin": (_suite_berezin, "coherent-state quantization cross-checks", "pass"),
    "quantions": (_suite_quantions, "quantionic norms, current, and factorization", "pass"),
    "envariance-reflexivity": (_suite_envariance("reflexivity"), "counter-unitary restores the state", "pass"),
    "envariance-symmetry": (_suite_envariance("symmetry"), "equivalence symmetry construction", "pass"),
    "envariance-transitivity": (_suite_envariance("transitivity"), "equivalence transitivity construction", "pass"),
}


# ---------------------------------------------------------------------------
# Run, report, diff
# ---------------------------------------------------------------------------

def run(cfg: SuiteConfig) -> dict:
    names = sorted(SUITES) if "all" in cfg.suites else sorted(set(cfg.suites))
    results = []
    verdicts = set()
    for name in names:
        runner, anchor, expected = SUITES[name]
        t0 = time.monotonic()
        try:
            res = runner(cfg, cfg.seed)
        except Exception as e:  # one raising suite must not abort the others
            traceback.print_exc(file=sys.stderr)
            res = _result(0, [{"error": f"{type(e).__name__}: {e}"}])
            res["verdict"] = "error"
        wall = time.monotonic() - t0
        res.update(name=name, anchor=anchor, expected=expected)
        res["wall_ms"] = round(wall * 1000.0, 1) if cfg.record_timings else 0
        if cfg.record_timings:
            print(f"  {name}: {wall:.2f}s", file=sys.stderr)
        verdicts.add(res["verdict"])
        results.append(res)
    return {
        "version": SCHEMA_VERSION,
        "tool": __version__,
        "config": config_echo(cfg),
        "suites": results,
        "verdict": "error" if "error" in verdicts else "fail" if "fail" in verdicts else "pass",
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_md(report: dict) -> str:
    lines = [
        f"# verification report (tool {report['tool']}, schema {report['version']})",
        "",
        "| suite | expected | verdict | samples | max residual |",
        "|---|---|---|---|---|",
    ]
    for s in report["suites"]:
        lines.append(
            f"| {s['name']} | {s['expected']} | {s['verdict']} | "
            f"{s['samples']} | {s['max_residual']:.3g} |"
        )
    lines += ["", f"overall: **{report['verdict']}**", ""]
    return "\n".join(lines)


def diff_reports(old: dict, new: dict) -> dict:
    """Structural diff; wall times ignored, version-only changes flagged."""
    for rep in (old, new):
        if not (isinstance(rep, dict) and isinstance(rep.get("suites"), list)
                and all(isinstance(s, dict) and "name" in s for s in rep["suites"])):
            raise SchemaMismatch("not a report: expected an object with a 'suites' list")
    if old.get("version") != new.get("version"):
        raise SchemaMismatch(f"{old.get('version')} vs {new.get('version')}")

    def strip(rep):
        return {
            s["name"]: {k: v for k, v in s.items() if k != "wall_ms"}
            for s in rep["suites"]
        }

    so, sn = strip(old), strip(new)
    changed = sorted(
        name for name in set(so) | set(sn) if so.get(name) != sn.get(name)
    )
    meta_only = not changed and old.get("tool") != new.get("tool")
    return {"changed_suites": changed, "metadata_only": meta_only}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="compalg")
    sub = parser.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--config", default=None)
    v.add_argument("--suite", dest="suites", metavar="SUITE", action="append", default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--report", default=None)
    v.add_argument("--format", choices=("json", "md"), default=None)
    v.add_argument("--timings", dest="record_timings", action="store_true", default=None)

    sub.add_parser("suites", help="list suites with anchors and expected verdicts")

    d = sub.add_parser("diff", help="structural diff of two JSON reports")
    d.add_argument("old")
    d.add_argument("new")

    args = parser.parse_args(argv)
    try:
        if args.cmd == "suites":
            for name in sorted(SUITES):
                _, anchor, expected = SUITES[name]
                print(f"{name:32s} {expected:5s} {anchor}")
            return 0
        if args.cmd == "diff":
            with open(args.old) as f:
                old = json.load(f)
            with open(args.new) as f:
                new = json.load(f)
            delta = diff_reports(old, new)
            print(json.dumps(delta, sort_keys=True, indent=2))
            return 1 if delta["changed_suites"] else 0

        text = ""
        if args.config:
            with open(args.config) as f:
                text = f.read()
        # each verify flag is stored under the config key it overrides
        cfg = parse_config(text, vars(args))
        rep = run(cfg)
        out = report_json(rep) if cfg.format == "json" else report_md(rep)
        if cfg.report:
            with open(cfg.report, "w") as f:
                f.write(out)
        else:
            sys.stdout.write(out)
        return {"pass": 0, "fail": 1, "error": 3}[rep["verdict"]]
    except (ConfigError, SchemaMismatch, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
