"""Two-product algebra harness.

A carrier bundles the two bilinear products with their unit, J-squared
class tag and hbar; identity checkers run parametrized sweeps over any
carrier, and the bipartite tensor composition builds a new carrier out of
two compatible ones via

    alpha12 = alpha1 sigma2 + sigma1 alpha2
    sigma12 = sigma1 sigma2 + (J^2 hbar^2 / 4) alpha1 alpha2.

A carrier's ``pair`` gives an element's coefficients as integer numerators
over one shared denominator, (den, {key: numerator}), and ``decompose``
gives them as values.  A composite element is that pair itself, in the
form a phase-space polynomial stores (FLINT's fmpq_poly): den > 0 coprime
to the numerators and zero entries dropped, keys (left key, right key)
nested as the composition is, brought there by the one canonicalizer
``phasepoly._lowest`` and summed and scaled by the polynomials' own
``phasepoly._add`` and ``phasepoly._scale``.  Sums, scalings, products and
pure tensors stay on integers, so equal values are equal pairs; only
``decompose`` builds Fractions, one per coefficient.  A value that is not rational (a float
carrier's complex entry) is its own numerator over 1 and leaves den 1.
Products expand factor basis pairs through the factor carrier's memo
table, filled from the factor's pairs.

The forbidden a alpha1 alpha2 term makes the composite skew product
alpha_0 + a A, so a Leibniz-alpha defect is an exact polynomial
D_0 + a D_1 + a^2 D_2 in a; ``falsify_sweep`` builds its coefficients once
per sampled triple and judges it at every requested a.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Any, Callable, Optional

from . import phasepoly as pp
from .errors import ClassMismatch, HBarMismatch, UnexpectedPass
from .phasepoly import PhasePoly, _add, _lowest, _ratio, _scale, _split

# identity name -> number of sampled arguments; check_all_identities seeds
# identity k with seed + k, so this order fixes every report
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
IDENTITIES = tuple(IDENTITY_ARITY)


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
    pair: Callable[[Any], tuple]  # decompose(x) as (den, {key: numerator})
    basis: Callable[[Any], Any]  # inverse of decompose on one key
    residual: Callable[[Any], float]  # largest |coefficient| of decompose(x), 0.0 if none
    sample: Callable[[random.Random], Any]
    tol: float = 0.0
    jscale: Optional[Callable[[Any, Fraction], Any]] = None
    # (product, k1, k2) -> pair(product(basis(k1), basis(k2))),
    # filled by the composites built on this carrier and shared by all of them
    expansions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def sub(self, x, y):
        return self.add(x, self.scale(y, Fraction(-1)))

    def is_zero(self, elem) -> bool:
        return self.residual(elem) <= self.tol


def _magnitude(v) -> float:
    if isinstance(v, complex):
        return abs(v)
    return max(abs(float(v.real)), abs(float(v.imag)))


def _residual(den: int, nums: dict) -> float:
    """Largest |coefficient| of the pair (den, nums), 0.0 if none.

    An int numerator's size is divided by den in one int true division,
    which is correctly rounded as float(Fraction) is.
    """
    return max((abs(n) if isinstance(n, int) else _magnitude(n) for n in nums.values()), default=0) / den


@dataclass
class IdentityReport:
    """Outcome of one identity sweep; failures are data, not errors."""

    identity: str
    carrier: str
    samples: int
    failures: list = field(default_factory=list)
    max_residual: float = 0.0
    expected: str = "pass"

    @property
    def passed(self) -> bool:
        if self.expected == "fail":
            return bool(self.failures)
        return not self.failures


# ---------------------------------------------------------------------------
# Identity defect functions: each returns (defect, summands) pairs to vanish
# ---------------------------------------------------------------------------

def _defects(c: Carrier, identity: str, elems) -> list:
    a, s = c.alpha, c.sigma
    if identity == "leibniz-sigma":
        f, g, h = elems
        t = (a(f, s(g, h)), s(a(f, g), h), s(g, a(f, h)))
        return [(c.sub(t[0], c.add(t[1], t[2])), t)]
    if identity == "leibniz-alpha":
        f, g, h = elems
        t = (a(f, a(g, h)), a(a(f, g), h), a(g, a(f, h)))
        return [(c.sub(t[0], c.add(t[1], t[2])), t)]
    if identity == "jacobi":
        f, g, h = elems
        t = (a(f, a(g, h)), a(h, a(f, g)), a(g, a(h, f)))
        return [(c.add(t[0], c.add(t[1], t[2])), t)]
    if identity == "jordan":
        f, g = elems
        sq = s(f, f)
        t = (s(f, s(g, sq)), s(s(f, g), sq))
        return [(c.sub(*t), t)]
    if identity == "compatibility":
        f, g, h = elems
        x = Fraction(c.jsquared) * c.hbar * c.hbar / 4
        ts = (s(s(f, g), h), s(f, s(g, h)))
        ta = (a(a(f, g), h), a(f, a(g, h)))
        defect = c.add(c.sub(*ts), c.scale(c.sub(*ta), x))
        # lazy: the scaled skew summands are built only if a float tolerance reads them
        return [(defect, chain(ts, (c.scale(u, x) for u in ta)))]
    if identity == "skew-alpha":
        f, g = elems
        t = (a(f, g), a(g, f))
        return [(c.add(*t), t)]
    if identity == "sym-sigma":
        f, g = elems
        t = (s(f, g), s(g, f))
        return [(c.sub(*t), t)]
    if identity == "unitality":
        (f,) = elems
        left, right = s(c.unit, f), s(f, c.unit)
        return [(c.sub(left, f), (left, f)), (c.sub(right, f), (right, f))]
    if identity == "relationality":
        (f,) = elems
        left, right = a(c.unit, f), a(f, c.unit)
        return [(left, (left,)), (right, (right,))]


def _judge(rep: IdentityReport, carrier: Carrier, defect, summands=(), **where) -> Optional[dict]:
    """The one pass/fail rule: record the defect's residual and fail it above tolerance.

    A float tolerance is relative to the largest summand coefficient.  A
    failing defect appends ``{**where, "residual": r}`` and returns it.
    """
    r = carrier.residual(defect)
    rep.max_residual = max(rep.max_residual, r)
    scale = max((1.0, *map(carrier.residual, summands))) if carrier.tol else 1.0
    if r > carrier.tol * scale:
        rep.failures.append({**where, "residual": r})
        return rep.failures[-1]
    return None


def check_identity(carrier: Carrier, identity: str, count: int = 200, seed: int = 0) -> IdentityReport:
    """Evaluate the named identity on `count` random tuples."""
    if identity not in IDENTITY_ARITY:
        raise ValueError(f"unknown identity {identity!r}")
    rng = random.Random(seed)
    rep = IdentityReport(identity, carrier.name, count)
    arity = IDENTITY_ARITY[identity]
    for i in range(count):
        elems = tuple(carrier.sample(rng) for _ in range(arity))
        for defect, summands in _defects(carrier, identity, elems):
            if failed := _judge(rep, carrier, defect, summands, sample=i):
                failed["witness"] = repr(elems)
    return rep


def check_all_identities(carrier, count=200, seed=0):
    return [check_identity(carrier, ident, count, seed + k) for k, ident in enumerate(IDENTITIES)]


# ---------------------------------------------------------------------------
# Phase-space polynomial carriers
# ---------------------------------------------------------------------------

def sample_poly(rng: random.Random, dof: int = 1, max_degree: int = 4) -> PhasePoly:
    """Up to four terms, each a random monomial of degree <= max_degree.

    Each coefficient is uniform in [-5, 5] with denominator d <= 4, drawn
    as d and then its numerator, and kept as those integers.
    """
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * (2 * dof)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(2 * dof)] += 1
        d = rng.randint(1, 4)
        terms[tuple(exps)] = (rng.randint(-5 * d, 5 * d), d)
    den = lcm(*(d for _, d in terms.values()))
    return PhasePoly._canonical(dof, den, {e: n * (den // d) for e, (n, d) in terms.items()})


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
        decompose=lambda x: x.terms,
        pair=lambda x: (x.den, x.nums),
        basis=lambda k: PhasePoly(dof, {k: 1}),
        residual=lambda x: _residual(x.den, x.nums),
        sample=lambda rng: sample_poly(rng, dof, max_degree),
        tol=0.0,
        jscale=lambda x, r: x.scale(j_unit * Fraction(r)),
    )


# ---------------------------------------------------------------------------
# Bipartite tensor composition
# ---------------------------------------------------------------------------

def tensor(a: Carrier, b: Carrier, left, right) -> tuple:
    """The pure tensor left (x) right as a compose_bipartite(a, b) element."""
    dl, nl = a.pair(left)
    dr, nr = b.pair(right)
    return _lowest(dl * dr, {(kl, kr): cl * cr for kl, cl in nl.items() for kr, cr in nr.items()})


def _expander(c: Carrier) -> Callable:
    """pair(prod(basis(k1), basis(k2))), memoized in c.expansions."""
    table = c.expansions

    def expand(prod, k1, k2):
        key = (prod, k1, k2)
        e = table.get(key)
        if e is None:
            e = table[key] = c.pair(prod(c.basis(k1), c.basis(k2)))
        return e

    return expand


def _product(law: list, left: Callable, right: Callable) -> Callable:
    """The bilinear composite product sum_i w_i (left_i (x) right_i).

    `law` lists (left product, right product, weight) and zero weights add
    no terms; `left` and `right` are the factor carriers' expanders.  It
    acts on canonical (den, numerators) pairs.
    """
    law = [(pa, pb, *_split(w)) for pa, pb, w in law if w]

    def run(x, y):
        (dx, x), (dy, y) = x, y
        # each factor expansion this call needs, fetched once per distinct key pair
        xl, xr = dict.fromkeys(k[0] for k in x), dict.fromkeys(k[1] for k in x)
        yl, yr = dict.fromkeys(k[0] for k in y), dict.fromkeys(k[1] for k in y)
        rkeys = [(r1, r2) for r1 in xr for r2 in yr]
        lkeys = [(l1, l2) for l1 in xl for l2 in yl]
        terms = []
        for pa, pb, nw, dw in law:
            rt = {k: e for k in rkeys if (e := right(pb, *k))[1]}
            if rt:
                terms.append((nw, dw, {k: left(pa, *k) for k in lkeys}, rt))
        parts = {}  # denominator dw*dl*dr -> {key: integer numerator}
        for (l1, r1), n1 in x.items():
            for (l2, r2), n2 in y.items():
                n12 = n1 * n2
                lk, rk = (l1, l2), (r1, r2)
                for nw, dw, lt, rt in terms:
                    e = rt.get(rk)
                    if e is None:
                        continue
                    dr, nr = e
                    dl, nl = lt[lk]
                    acc = parts.setdefault(dw * dl * dr, {})
                    nn = nw * n12
                    for kl, cl in nl.items():
                        wl = nn * cl
                        for kr, cr in nr.items():
                            k = (kl, kr)
                            acc[k] = acc.get(k, 0) + wl * cr
        den = lcm(*parts)
        out = {}
        for d, acc in parts.items():
            m = den // d
            for k, v in acc.items():
                out[k] = out.get(k, 0) + v * m
        return _lowest(den * dx * dy, out)

    return run


def compose_bipartite(a: Carrier, b: Carrier) -> Carrier:
    """Carrier on canonical (den, {(left key, right key): numerator}) pairs.

    Both products are one bilinear law sum_i w_i (left_i (x) right_i), and
    each pair of factor basis keys is expanded once per factor carrier, in
    that carrier's ``expansions`` table.
    """
    if a.jsquared != b.jsquared:
        raise ClassMismatch(f"{a.name} vs {b.name}")
    if a.hbar != b.hbar:
        raise HBarMismatch(f"{a.name} vs {b.name}")
    xcoef = Fraction(a.jsquared) * a.hbar * a.hbar / 4
    left, right = _expander(a), _expander(b)

    def t_sample(rng):
        t = tensor(a, b, a.sample(rng), b.sample(rng))
        if rng.random() < 0.5:
            t = _add(t, tensor(a, b, a.sample(rng), b.sample(rng)))
        return t

    return Carrier(
        name=f"({a.name})x({b.name})",
        jsquared=a.jsquared,
        hbar=a.hbar,
        unit=tensor(a, b, a.unit, b.unit),
        add=_add,
        scale=_scale,
        sigma=_product([(a.sigma, b.sigma, 1), (a.alpha, b.alpha, xcoef)], left, right),
        alpha=_product([(a.alpha, b.sigma, 1), (a.sigma, b.alpha, 1)], left, right),
        decompose=lambda x: {k: _ratio(n, x[0]) for k, n in x[1].items()},
        pair=lambda x: x,
        basis=lambda k: (1, {k: 1}),
        residual=lambda x: _residual(*x),
        sample=t_sample,
        tol=max(a.tol, b.tol),
    )


def check_monoid(a: Carrier, b: Carrier, c: Carrier, count: int = 100, seed: int = 0) -> IdentityReport:
    """Commutativity, associativity and unit absorption of composition on random pure tensors.

    Each law is one defect on the composite it lives on: the other side's
    result is carried over by relabelling its keys.
    """
    ab, ba = compose_bipartite(a, b), compose_bipartite(b, a)
    ab_c = compose_bipartite(ab, c)
    bc = compose_bipartite(b, c)
    a_bc = compose_bipartite(a, bc)
    rng = random.Random(seed)
    rep = IdentityReport("monoid", f"{a.name},{b.name},{c.name}", count)

    def law(i, name, carrier, lhs, rhs):
        _judge(rep, carrier, carrier.sub(lhs, rhs), (lhs, rhs), sample=i, law=name)

    for i in range(count):
        fa, fb, fc = a.sample(rng), b.sample(rng), c.sample(rng)
        ga, gb, gc = a.sample(rng), b.sample(rng), c.sample(rng)

        # sigma12 = sigma21 and alpha12 = alpha21, modulo the factor swap
        for prod in ("sigma", "alpha"):
            x12 = getattr(ab, prod)(tensor(a, b, fa, fb), tensor(a, b, ga, gb))
            den, x21 = getattr(ba, prod)(tensor(b, a, fb, fa), tensor(b, a, gb, ga))
            law(i, f"{prod}-commutativity", ab, x12, (den, {(k[1], k[0]): v for k, v in x21.items()}))

        # associativity of composition on triple tensors
        left_f = tensor(ab, c, tensor(a, b, fa, fb), fc)
        left_g = tensor(ab, c, tensor(a, b, ga, gb), gc)
        right_f = tensor(a, bc, fa, tensor(b, c, fb, fc))
        right_g = tensor(a, bc, ga, tensor(b, c, gb, gc))
        for prod in ("sigma", "alpha"):
            den, xl = getattr(ab_c, prod)(left_f, left_g)
            xl = (den, {(ka, (kb, kc)): v for ((ka, kb), kc), v in xl.items()})  # re-associate keys
            law(i, f"{prod}-associativity", a_bc, xl, getattr(a_bc, prod)(right_f, right_g))

        # unit absorption: (f (x) 1) prod12 (g (x) 1) = (f prod g) (x) 1
        for prod in ("sigma", "alpha"):
            got = getattr(ab, prod)(tensor(a, b, fa, b.unit), tensor(a, b, ga, b.unit))
            want = tensor(a, b, getattr(a, prod)(fa, ga), b.unit)
            law(i, f"{prod}-unit-absorption", ab, got, want)
    return rep


def falsify_sweep(a: Carrier, b: Carrier, extras, count: int = 200, seed: int = 0) -> list:
    """Leibniz-alpha sweeps with the extra x*alpha alpha term, one report per x in `extras`.

    The skew product is alpha_x = alpha_0 + x A, with A the alpha1 alpha2
    law term, so each sampled defect is exactly D_0 + x D_1 + x^2 D_2.  Each
    triple is drawn once (the sampler does not depend on x), the three
    coefficients are built with alpha_0 and A, and D(x) is judged for every
    x.  The reports are those of ``check_identity`` on the composite whose
    skew product is ``compose_bipartite(a, b)``'s plus x A; a nonzero x is
    expected to fail.
    """
    extras = [Fraction(x) for x in extras]
    c = compose_bipartite(a, b)
    products = (c.alpha, _product([(a.alpha, b.alpha, 1)], _expander(a), _expander(b)))
    reps = [IdentityReport("leibniz-alpha", c.name, count, expected="fail" if x else "pass") for x in extras]

    def skew(us, vs):
        """alpha_x(u, v) as coefficients in x, for u and v given as coefficients in x."""
        out = [None] * (len(us) + len(vs))
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                for k, prod in enumerate(products):
                    t = prod(u, v)
                    out[i + j + k] = t if out[i + j + k] is None else c.add(out[i + j + k], t)
        return out

    def at(coeffs, x):
        """sum_k x^k coeffs[k], by Horner's rule."""
        out = coeffs[-1]
        for d in reversed(coeffs[:-1]):
            out = c.add(c.scale(out, x), d)
        return out

    rng = random.Random(seed)
    for i in range(count):
        f, g, h = elems = tuple(c.sample(rng) for _ in range(3))
        t = (skew([f], skew([g], [h])), skew(skew([f], [g]), [h]), skew([g], skew([f], [h])))
        defect = [c.sub(t0, c.add(t1, t2)) for t0, t1, t2 in zip(*t)]
        for x, rep in zip(extras, reps):
            # lazy: the summands are built only if a float tolerance reads them
            summands = (at(terms, x) for terms in t)
            if failed := _judge(rep, c, at(defect, x), summands, sample=i):
                failed["witness"] = repr(elems)
    return reps


def falsify_nonzero_a(
    a: Carrier, b: Carrier, extra_a: Fraction, count: int = 200, seed: int = 0
) -> IdentityReport:
    """Bipartite Leibniz sweep with the extra a*alpha alpha term.

    For extra_a != 0 the sweep MUST find a counterexample; finding none
    signals a sampler too weak and raises UnexpectedPass.
    """
    (rep,) = falsify_sweep(a, b, [extra_a], count, seed)
    if rep.expected == "fail" and not rep.failures:
        raise UnexpectedPass(
            f"no Leibniz counterexample for a={Fraction(extra_a)}; widen sampler degrees"
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
    bip = compose_bipartite(a, a)
    for i in range(count):
        f, g = a.sample(rng), a.sample(rng)
        _judge(rep, bip, tensor(a, a, a.alpha(f, g), a.alpha(a.unit, a.unit)), sample=i)
    # control: sigma restored, bracket of canonical pair survives composition
    dof = a.unit.dof
    probe = bip.alpha(tensor(a, a, PhasePoly.q(1, dof), a.unit), tensor(a, a, PhasePoly.p(1, dof), a.unit))
    if bip.is_zero(probe):
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
