"""The three benchmark workloads: set-up, one timed pass, correctness gate.

Each workload is a class with
- `setup(seed, size)`: builds the pass's fixtures from the seed (untimed
  work of the pass, reported as `setup_s` together with the imports);
- `run(fx)`: the timed pass, returning its outputs, one outcome per
  top-level verification call, and the calls that raised;
- `attempted(fx)`: how many top-level calls a pass makes;
- `digest(out)`: the outputs that must be equal between passes of one seed;
- `gate(fx, out, expected)`: failures of the correctness gate, as strings.

`size` is "full" for the benchmark and "tiny" for the self-test.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np

from compalg import algebra, berezin, cli, hilbert, moyalpos
from compalg.phasepoly import HYPERBOLIC, PhasePoly
from compalg.scalars import J_SPLIT

# Witnesses that do not depend on the seed, taken from the current code.
EXPECTED = {
    "verify.ghost": "(-2, -2, -2, -2, 1) = -5",
    "verify.minimizer_distance_square": "1",
    "verify.gamma_rep": "weyl-perm(1, 2, 3)-signs(1, 1, 1)",
    "verify.elliptic_min": "0",
    "positivity.elliptic_min": "0",
    # first lexicographic hyperbolic ghost at lattice bound 2, per hbar
    "positivity.ghost.1/2": "(-1, -2, -2, -2, 1) = -5/4",
    "positivity.ghost.1": "(-2, -2, -2, -2, 1) = -1/2",
    "positivity.ghost.2": "(-2, -2, -2, -2, 1) = -5",
    "positivity.ghost.3": "(-2, -2, -2, -2, 0) = -2",
    # criterion 9 tolerances
    "operator.berezin_tol": "1e-6",
    "operator.correspondence_tol": "1e-5",
}
POSITIVITY_TOL = 1e-9  # criterion 9, passed to berezin.positivity_preservation

# suites whose exact carriers must report a residual of exactly 0
EXACT_SUITES = (
    "identities-elliptic-phase", "identities-parabolic-phase",
    "identities-hyperbolic-phase", "composition-monoid", "falsify-nonzero-a",
    "single-product-triviality",
)
NONZERO_A = ("1", "-1", "1/2")


def _ghost_str(coeffs, value) -> str:
    return f"{tuple(coeffs)} = {value}"


class Verify:
    """Default `compalg verify` config, in-process through `cli.run`."""

    name = "verify"

    def setup(self, seed: int, size: str):
        cfg = cli.parse_config("")
        cfg.seed = seed
        if size == "tiny":
            cfg.identity_count, cfg.pair_count = 2, 4
            cfg.suites = [s for s in cli.SUITES if s != "falsify-nonzero-a"]
        return {"cfg": cfg}

    def run(self, fx):
        report = cli.run(fx["cfg"])
        text = cli.report_json(report)
        outcomes = [s["verdict"] == "pass" for s in report["suites"]]
        return {"report": report, "text": text, "outcomes": outcomes}

    def attempted(self, fx) -> int:
        cfg = fx["cfg"]
        return len(cli.SUITES) if "all" in cfg.suites else len(set(cfg.suites))

    def digest(self, out) -> str:
        return hashlib.sha256(out["text"].encode()).hexdigest()

    def gate(self, fx, out, expected):
        bad = []
        report = out["report"]
        if report["verdict"] != "pass":
            bad.append(f"report verdict {report['verdict']} (exit status 1)")
        suites = {s["name"]: s for s in report["suites"]}
        for s in report["suites"]:
            if s["verdict"] != "pass":
                bad.append(f"suite {s['name']} deviates from expected {s['expected']}")
            if s["name"] in EXACT_SUITES and s["max_residual"] != 0:
                bad.append(f"suite {s['name']} exact residual {s['max_residual']!r}")
        if "falsify-nonzero-a" in suites:
            found = {w["a"]: w["counterexamples"]
                     for w in suites["falsify-nonzero-a"].get("witness", [])}
            for a in NONZERO_A:
                if not found.get(a):
                    bad.append(f"falsify-nonzero-a: no counterexample for a={a}")
        checks = (
            ("ghost-hyperbolic", "verify.ghost",
             lambda w: _ghost_str(w["coeffs"], w["value"])),
            ("minimizer-no-go", "verify.minimizer_distance_square",
             lambda w: w["distance_square"]),
            ("quantions", "verify.gamma_rep", lambda w: w["gamma_rep"]),
            ("positivity-elliptic", "verify.elliptic_min", lambda w: w["min_value"]),
        )
        for suite, key, read in checks:
            if suite in suites:
                got = read(suites[suite].get("witness", {}))
                if got != expected[key]:
                    bad.append(f"{suite} witness {got!r} != {expected[key]!r}")
        return bad

    @staticmethod
    def declared_samples(out) -> dict:
        return {s["name"]: s["samples"] for s in out["report"]["suites"]}


class Positivity:
    """Criterion-6 shape: elliptic control sweep and ghost search."""

    name = "positivity"
    HBARS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))

    def setup(self, seed: int, size: str):
        hbar = random.Random(seed).choice(self.HBARS)
        sweep_bound = 1 if size == "tiny" else 2
        # the ground state the gate re-evaluates the ghost on
        return {"hbar": hbar, "ground": moyalpos.fock_wigner(0, hbar),
                "sweep_bound": sweep_bound, "ghost_bound": 2}

    def run(self, fx):
        raised = []
        minimum = _call(raised, moyalpos.elliptic_control_sweep,
                        fx["hbar"], fx["sweep_bound"], (0, 1))
        ghost = _call(raised, moyalpos.ghost_search, fx["hbar"], fx["ghost_bound"])
        outcomes = [minimum is not None and minimum >= 0,
                    ghost is not None and ghost.value_real < 0]
        return {"minimum": minimum, "ghost": ghost, "outcomes": outcomes, "raised": raised}

    def attempted(self, fx) -> int:
        return 2

    def digest(self, out) -> str:
        g = out["ghost"]
        return f"{out['minimum']}|{g.coeffs if g else None}|{g.value_real if g else None}"

    def gate(self, fx, out, expected):
        bad = []
        hbar = fx["hbar"]
        if out["minimum"] is None or out["minimum"] != Fraction(expected["positivity.elliptic_min"]):
            bad.append(f"elliptic minimum {out['minimum']} at hbar {hbar} is not exactly 0")
        g = out["ghost"]
        want = expected[f"positivity.ghost.{hbar}"]
        got = _ghost_str(g.coeffs, g.value_real) if g else None
        if got != want:
            bad.append(f"ghost at hbar {hbar}: {got!r} != {want!r}")
        else:
            value = moyalpos.positivity_functional(fx["ground"], _ghost_poly(g), HYPERBOLIC, hbar)
            if getattr(value, "re", value) != g.value_real:
                bad.append(f"ghost value {g.value_real} does not re-evaluate to {value}")
        return bad


def _ghost_poly(g) -> PhasePoly:
    c1, c2, c3, c4, c5 = (Fraction(c) for c in g.coeffs)
    q, p = PhasePoly.q(), PhasePoly.p()
    return PhasePoly.const(c1, 1) + q.scale(c2 + J_SPLIT * c4) + p.scale(c3 + J_SPLIT * c5)


class Operator:
    """Float path: Hilbert identity table, C*-checks, Berezin quantization."""

    name = "operator"
    DIMS = (4, 6)
    BEREZIN_N, BEREZIN_HBAR = 16, 1.0

    def setup(self, seed: int, size: str):
        full = size == "full"
        rng = np.random.default_rng(seed)
        count = 25 if full else 2
        n_cstar = 100 if full else 3

        def hermitian(n):
            m = rng.normal(0, 2, (n, n)) + 1j * rng.normal(0, 2, (n, n))
            return 0.5 * (m + m.conj().T)

        q, p = PhasePoly.q(), PhasePoly.p()
        N = self.BEREZIN_N
        return {
            "carriers": [hilbert.matrix_carrier(d) for d in self.DIMS],
            "identity_count": count,
            "identity_seed": int(rng.integers(0, 2**31)),
            "cstar": [hermitian(8) + 1j * hermitian(8) for _ in range(n_cstar)],
            "grid": berezin.build_grid(self.BEREZIN_HBAR, N, 4),
            "polys": {"1": PhasePoly.const(1, 1), "q": q, "p": p,
                      "q^2": q * q, "q^2+p^2": q * q + p * p},
        }

    def run(self, fx):
        outcomes, raised = [], []
        for carrier in fx["carriers"]:
            reps = _call(raised, algebra.check_all_identities,
                         carrier, fx["identity_count"], fx["identity_seed"])
            outcomes += [rep.passed for rep in reps] if reps else [False] * len(algebra.IDENTITIES)
        for t in fx["cstar"]:
            outcomes.append(bool(_call(raised, hilbert.cstar_check, t, rtol=1e-10)))
        h, N, grid = self.BEREZIN_HBAR, self.BEREZIN_N, fx["grid"]
        quantized = {}
        for name, f in fx["polys"].items():
            quantized[name] = _call(raised, berezin.berezin_quantize, f, h, N, grid)
            outcomes.append(quantized[name] is not None)
        errors = {}
        if all(m is not None for m in quantized.values()):
            tr = berezin.trusted
            errors["unit"] = _maxabs(tr(quantized["1"]) - np.eye(N // 2))
            errors["ladder_q"] = _maxabs(tr(quantized["q"]) - tr(berezin.ladder_position_oracle(h, N)))
            errors["ladder_p"] = _maxabs(tr(quantized["p"]) - tr(berezin.ladder_momentum_oracle(h, N)))
            br = hilbert.op_alpha(tr(quantized["q"]), tr(quantized["p"]), h)
            k = N // 2 - 1  # truncation defect sits on the trusted edge
            errors["correspondence"] = _maxabs(br[:k, :k] - np.eye(k))
            for name in ("q^2", "q^2+p^2"):
                errors[f"positive {name}"] = berezin.positivity_preservation(
                    quantized[name], tol=POSITIVITY_TOL)
        return {"outcomes": outcomes, "errors": errors, "raised": raised}

    def attempted(self, fx) -> int:
        return len(algebra.IDENTITIES) * len(fx["carriers"]) + len(fx["cstar"]) + len(fx["polys"])

    def digest(self, out) -> str:
        return repr(out["outcomes"])

    def gate(self, fx, out, expected):
        e = out["errors"]
        if not e:
            return []  # a quantization raised; the raise is reported as such
        bad = []
        tol = float(expected["operator.berezin_tol"])
        for key in ("unit", "ladder_q", "ladder_p"):
            if not e[key] <= tol:
                bad.append(f"berezin {key} error {e[key]:.3g} > {tol}")
        tol = float(expected["operator.correspondence_tol"])
        if not e["correspondence"] <= tol:
            bad.append(f"berezin correspondence error {e['correspondence']:.3g} > {tol}")
        for name in ("q^2", "q^2+p^2"):
            if not e[f"positive {name}"]:
                bad.append(f"berezin quantization of {name} is not positive")
        return bad


def _call(raised: list, fn, *args, **kwargs):
    """One top-level verification call; a raise is recorded and gives None."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # a raising call is a failed call, not a crash
        raised.append(f"{fn.__name__} raised {type(e).__name__}: {e}")
        return None


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


WORKLOADS = {w.name: w for w in (Verify(), Positivity(), Operator())}
