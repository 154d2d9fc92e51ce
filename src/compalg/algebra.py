"""Two-product algebra harness.

A carrier bundles the two bilinear products with their unit, J-squared
class tag and hbar; identity checkers run parametrized sweeps over any
carrier, and the bipartite tensor composition builds a new carrier out of
two compatible ones via

    alpha12 = alpha1 sigma2 + sigma1 alpha2
    sigma12 = sigma1 sigma2 + (J^2 hbar^2 / 4) alpha1 alpha2.

Tensor elements are formal weighted sums of pure tensors; equality is
decided by expanding into a canonical basis (exact for polynomial
carriers, tolerance-based for float ones).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from . import phasepoly as pp
from .errors import ClassMismatch, HBarMismatch, UnexpectedPass
from .phasepoly import PhasePoly

IDENTITIES = (
    "leibniz-sigma",
    "leibniz-alpha",
    "jacobi",
    "jordan",
    "compatibility",
    "skew-alpha",
    "sym-sigma",
    "unitality",
    "relationality",
)


@dataclass(frozen=True)
class Carrier:
    """A concrete realization of the two-product algebra."""

    name: str
    jsquared: int
    hbar: Fraction
    unit: Any
    add: Callable[[Any, Any], Any]
    scale: Callable[[Any, Fraction], Any]
    sigma: Callable[[Any, Any], Any]
    alpha: Callable[[Any, Any], Any]
    decompose: Callable[[Any], dict]
    sample: Callable[[random.Random], Any]
    tol: float = 0.0
    jscale: Optional[Callable[[Any, Fraction], Any]] = None
    composite: bool = False

    def sub(self, x, y):
        return self.add(x, self.scale(y, Fraction(-1)))

    def residual(self, elem) -> float:
        vals = self.decompose(elem)
        if not vals:
            return 0.0
        return max(_magnitude(v) for v in vals.values())

    def is_zero(self, elem) -> bool:
        return self.residual(elem) <= self.tol


def _magnitude(v) -> float:
    if isinstance(v, complex):
        return abs(v)
    if isinstance(v, (int, float, Fraction)):
        return abs(float(v))
    # exact two-component scalars
    return max(abs(float(v.re)), abs(float(v.im)))


@dataclass
class IdentityReport:
    """Outcome of one identity sweep; failures are data, not errors."""

    identity: str
    carrier: str
    samples: int
    failures: list = field(default_factory=list)
    max_residual: float = 0.0
    expected: str = "pass"
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.expected == "fail":
            return bool(self.failures)
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.identity,
            "carrier": self.carrier,
            "samples": self.samples,
            "expected": self.expected,
            "verdict": "pass" if self.passed else "fail",
            "failures": self.failures,
            "max_residual": self.max_residual,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# Identity defect functions: each returns a list of elements that must vanish
# ---------------------------------------------------------------------------

def _defects(c: Carrier, identity: str, elems) -> list:
    a, s = c.alpha, c.sigma
    if identity == "leibniz-sigma":
        f, g, h = elems
        return [c.sub(a(f, s(g, h)), c.add(s(a(f, g), h), s(g, a(f, h))))]
    if identity == "leibniz-alpha":
        f, g, h = elems
        return [c.sub(a(f, a(g, h)), c.add(a(a(f, g), h), a(g, a(f, h))))]
    if identity == "jacobi":
        f, g, h = elems
        return [c.add(a(f, a(g, h)), c.add(a(h, a(f, g)), a(g, a(h, f))))]
    if identity == "jordan":
        f, g = elems
        sq = s(f, f)
        return [c.sub(s(f, s(g, sq)), s(s(f, g), sq))]
    if identity == "compatibility":
        f, g, h = elems
        x = Fraction(c.jsquared) * c.hbar * c.hbar / 4
        asc_s = c.sub(s(s(f, g), h), s(f, s(g, h)))
        asc_a = c.sub(a(a(f, g), h), a(f, a(g, h)))
        return [c.add(asc_s, c.scale(asc_a, x))]
    if identity == "skew-alpha":
        f, g = elems
        return [c.add(a(f, g), a(g, f))]
    if identity == "sym-sigma":
        f, g = elems
        return [c.sub(s(f, g), s(g, f))]
    if identity == "unitality":
        (f,) = elems
        return [c.sub(s(c.unit, f), f), c.sub(s(f, c.unit), f)]
    if identity == "relationality":
        (f,) = elems
        return [a(c.unit, f), a(f, c.unit)]
    raise ValueError(f"unknown identity {identity!r}")


IDENTITY_ARITY = {
    "leibniz-sigma": 3,
    "leibniz-alpha": 3,
    "jacobi": 3,
    "jordan": 2,
    "compatibility": 3,
    "skew-alpha": 2,
    "sym-sigma": 2,
    "unitality": 1,
    "relationality": 1,
}


def check_identity(
    carrier: Carrier,
    identity: str,
    count: int = 200,
    seed: int = 0,
    sampler: Optional[Callable] = None,
) -> IdentityReport:
    """Evaluate the named identity on `count` random tuples."""
    if identity not in IDENTITY_ARITY:
        raise ValueError(f"unknown identity {identity!r}")
    rng = random.Random(seed)
    draw = sampler or carrier.sample
    rep = IdentityReport(identity, carrier.name, count)
    arity = IDENTITY_ARITY[identity]
    for i in range(count):
        elems = tuple(draw(rng) for _ in range(arity))
        for defect in _defects(carrier, identity, elems):
            r = carrier.residual(defect)
            rep.max_residual = max(rep.max_residual, r)
            if r > carrier.tol:
                rep.failures.append(
                    {"sample": i, "residual": r, "witness": repr(elems)}
                )
    return rep


def check_all_identities(carrier, count=200, seed=0, sampler=None):
    return [
        check_identity(carrier, ident, count, seed + k, sampler)
        for k, ident in enumerate(IDENTITIES)
    ]


# ---------------------------------------------------------------------------
# Phase-space polynomial carriers
# ---------------------------------------------------------------------------

def sample_rational(rng: random.Random) -> Fraction:
    """Uniform rational in [-5, 5] with denominator <= 4."""
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-5 * den, 5 * den), den)


def sample_poly(
    rng: random.Random, dof: int = 1, max_degree: int = 4, n_terms: int = 4
) -> PhasePoly:
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        exps = [0] * (2 * dof)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(2 * dof)] += 1
        terms[tuple(exps)] = sample_rational(rng)
    return PhasePoly(dof, terms)


def phase_poly_carrier(
    cls: str,
    hbar: Fraction = pp.DEFAULT_HBAR,
    dof: int = 1,
    max_degree: int = 4,
) -> Carrier:
    hbar = Fraction(hbar)
    j_unit = pp.J_UNIT[cls]

    return Carrier(
        name=f"phasepoly-{cls}-hbar{hbar}-dof{dof}",
        jsquared=pp.J_SQUARED[cls],
        hbar=hbar,
        unit=PhasePoly.const(1, dof),
        add=lambda x, y: x + y,
        scale=lambda x, s: x.scale(s),
        sigma=lambda x, y: pp.sigma(x, y, cls, hbar),
        alpha=lambda x, y: pp.alpha(x, y, cls, hbar),
        decompose=lambda x: dict(x.terms),
        sample=lambda rng: sample_poly(rng, dof, max_degree),
        tol=0.0,
        jscale=lambda x, r: x.scale(j_unit * Fraction(r)),
    )


# ---------------------------------------------------------------------------
# Bipartite tensor composition
# ---------------------------------------------------------------------------

def tensor(left, right, weight: Fraction = Fraction(1)):
    """A single pure tensor as a formal sum."""
    return ((left, right, weight),)


def _wrap_key(key, carrier: Carrier):
    return key if carrier.composite else (key,)


def compose_bipartite(a: Carrier, b: Carrier, extra_a: Fraction = Fraction(0)) -> Carrier:
    """Carrier on formal tensor sums, products acting by the bipartite law.

    `extra_a` adds the forbidden a * alpha1 alpha2 term to the skew product;
    it exists so the a = 0 derivation can be machine-falsified.
    """
    if a.jsquared != b.jsquared:
        raise ClassMismatch(f"{a.name} vs {b.name}")
    if a.hbar != b.hbar:
        raise HBarMismatch(f"{a.name} vs {b.name}")
    xcoef = Fraction(a.jsquared) * a.hbar * a.hbar / 4

    def t_add(x, y):
        return tuple(x) + tuple(y)

    def t_scale(x, s):
        s = Fraction(s)
        return tuple((l, r, w * s) for l, r, w in x)

    def t_sigma(x, y):
        out = []
        for l1, r1, w1 in x:
            for l2, r2, w2 in y:
                out.append((a.sigma(l1, l2), b.sigma(r1, r2), w1 * w2))
                if xcoef:
                    out.append((a.alpha(l1, l2), b.alpha(r1, r2), w1 * w2 * xcoef))
        return tuple(out)

    def t_alpha(x, y):
        out = []
        for l1, r1, w1 in x:
            for l2, r2, w2 in y:
                w = w1 * w2
                out.append((a.alpha(l1, l2), b.sigma(r1, r2), w))
                out.append((a.sigma(l1, l2), b.alpha(r1, r2), w))
                if extra_a:
                    out.append((a.alpha(l1, l2), b.alpha(r1, r2), w * extra_a))
        return tuple(out)

    def t_decompose(x):
        out = {}
        for l, r, w in x:
            dl, dr = a.decompose(l), b.decompose(r)
            for kl, cl in dl.items():
                for kr, cr in dr.items():
                    key = _wrap_key(kl, a) + _wrap_key(kr, b)
                    cur = out.get(key, 0) + w * cl * cr
                    if cur == 0:
                        out.pop(key, None)
                    else:
                        out[key] = cur
        return out

    def t_sample(rng):
        t = tensor(a.sample(rng), b.sample(rng))
        if rng.random() < 0.5:
            t = t_add(t, tensor(a.sample(rng), b.sample(rng)))
        return t

    return Carrier(
        name=f"({a.name})x({b.name})",
        jsquared=a.jsquared,
        hbar=a.hbar,
        unit=tensor(a.unit, b.unit),
        add=t_add,
        scale=t_scale,
        sigma=t_sigma,
        alpha=t_alpha,
        decompose=t_decompose,
        sample=t_sample,
        tol=max(a.tol, b.tol),
        composite=True,
    )


def check_monoid(a: Carrier, b: Carrier, c: Carrier, count: int = 100, seed: int = 0) -> IdentityReport:
    """Commutativity and associativity of composition on random pure tensors."""
    ab, ba = compose_bipartite(a, b), compose_bipartite(b, a)
    ab_c = compose_bipartite(ab, c)
    bc = compose_bipartite(b, c)
    a_bc = compose_bipartite(a, bc)
    rng = random.Random(seed)
    rep = IdentityReport("monoid", f"{a.name},{b.name},{c.name}", count)
    tol = max(a.tol, b.tol, c.tol)

    def close(d1, d2):
        keys = set(d1) | set(d2)
        worst = 0.0
        for k in keys:
            worst = max(worst, _magnitude(d1.get(k, 0) - d2.get(k, 0)))
        return worst

    for i in range(count):
        fa, fb, fc = a.sample(rng), b.sample(rng), c.sample(rng)
        ga, gb, gc = a.sample(rng), b.sample(rng), c.sample(rng)

        # sigma12 = sigma21 and alpha12 = alpha21, modulo the factor swap
        for prod in ("sigma", "alpha"):
            d12 = ab.decompose(getattr(ab, prod)(tensor(fa, fb), tensor(ga, gb)))
            d21 = ba.decompose(getattr(ba, prod)(tensor(fb, fa), tensor(gb, ga)))
            d21s = {(k[1], k[0]): v for k, v in d21.items()}
            r = close(d12, d21s)
            rep.max_residual = max(rep.max_residual, r)
            if r > tol:
                rep.failures.append({"sample": i, "law": f"{prod}-commutativity", "residual": r})

        # associativity of composition on triple tensors
        left_f = tensor(tensor(fa, fb), fc)
        left_g = tensor(tensor(ga, gb), gc)
        right_f = tensor(fa, tensor(fb, fc))
        right_g = tensor(ga, tensor(gb, gc))
        for prod in ("sigma", "alpha"):
            dl = ab_c.decompose(getattr(ab_c, prod)(left_f, left_g))
            dr = a_bc.decompose(getattr(a_bc, prod)(right_f, right_g))
            r = close(dl, dr)
            rep.max_residual = max(rep.max_residual, r)
            if r > tol:
                rep.failures.append({"sample": i, "law": f"{prod}-associativity", "residual": r})

        # unit absorption: f (x) 1 decomposes as f against the unit key
        du = b.decompose(b.unit)
        if len(du) == 1:
            ((ku, cu),) = du.items()
            d = ab.decompose(tensor(fa, b.unit))
            expected = {
                _wrap_key(k, a) + _wrap_key(ku, b): cu * v
                for k, v in a.decompose(fa).items()
            }
            r = close(d, expected)
            rep.max_residual = max(rep.max_residual, r)
            if r > tol:
                rep.failures.append({"sample": i, "law": "unit-absorption", "residual": r})
    return rep


def falsify_nonzero_a(
    a: Carrier, b: Carrier, extra_a: Fraction, count: int = 200, seed: int = 0
) -> IdentityReport:
    """Bipartite Leibniz sweep with the extra a*alpha alpha term.

    For extra_a != 0 the sweep MUST find a counterexample; finding none
    signals a sampler too weak and raises UnexpectedPass.
    """
    extra_a = Fraction(extra_a)
    carrier = compose_bipartite(a, b, extra_a=extra_a)
    rep = check_identity(carrier, "leibniz-alpha", count=count, seed=seed)
    rep.expected = "fail" if extra_a else "pass"
    rep.note = f"a={extra_a}"
    if extra_a and not rep.failures:
        raise UnexpectedPass(
            f"no Leibniz counterexample for a={extra_a}; widen sampler degrees"
        )
    return rep


def single_product_triviality(a: Carrier, count: int = 50, seed: int = 0) -> IdentityReport:
    """Without a second product the only bipartite ansatz collapses to zero.

    The composition-unit requirement forces (f (x) 1) alpha12 (g (x) 1) =
    coef * (f alpha g) (x) (1 alpha 1), which vanishes identically; with
    the symmetric product restored the same bracket is nonzero (control).
    """
    rng = random.Random(seed)
    rep = IdentityReport("single-product-triviality", a.name, count)
    for i in range(count):
        f, g = a.sample(rng), a.sample(rng)
        ansatz = tensor(a.alpha(f, g), a.alpha(a.unit, a.unit))
        bip = compose_bipartite(a, a)
        r = max(_magnitude(v) for v in bip.decompose(ansatz).values()) if bip.decompose(ansatz) else 0.0
        rep.max_residual = max(rep.max_residual, r)
        if r > a.tol:
            rep.failures.append({"sample": i, "residual": r})
    # control: sigma restored, bracket of canonical pair survives composition
    bip = compose_bipartite(a, a)
    dof = a.unit.dof
    probe = bip.alpha(tensor(PhasePoly.q(1, dof), a.unit), tensor(PhasePoly.p(1, dof), a.unit))
    if bip.residual(probe) <= bip.tol:
        rep.failures.append({"sample": -1, "note": "control bracket vanished"})
    return rep


def beta_product(carrier: Carrier, sign: int = +1) -> Callable:
    """Associative view f beta g = f sigma g +/- (J hbar / 2) f alpha g."""
    if carrier.jscale is None:
        raise ValueError(f"{carrier.name} has no J scalar extension")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")

    def beta(f, g):
        skew = carrier.jscale(carrier.alpha(f, g), sign * carrier.hbar / 2)
        return carrier.add(carrier.sigma(f, g), skew)

    return beta
