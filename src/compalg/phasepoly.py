"""Exact polynomial algebra on flat phase space R^2n.

Coordinates are ordered q^1..q^n, p_1..p_n.  Coefficients live in any of
the exact scalar rings from :mod:`compalg.scalars` (or plain Fractions);
every bracket and star-product series terminates on polynomials, so all
identities here are decidable by structural equality.  Every coefficient
answers ``real``, ``imag`` and ``conjugate()`` (Python's number protocol),
which is all that readers outside the kernel use of it.

One bidifferential engine serves every product: ``contractions`` walks the
levels k = 0, 1, 2, ... of f (<->nabla)^k g as merged signed derivative
pairs, each level built once from the one before, and ``series`` sums
sum_k w_k f (<->nabla)^k g for given weights.  The three classes differ
only in J^2 (-1, 0, +1) inside the one series sum_k (J hbar/2)^k/k! nabla^k,
whose even half is ``sigma`` and whose odd half (J factored out) is ``alpha``.

``series`` runs on integer numerators over one shared denominator (the
representation of FLINT's fmpq_poly): ``_over_lcm`` splits f, g and the
weights once, the walk and the products stay on ints, and each output
coefficient is one Fraction.  A value that is not rational (a J-valued
coefficient or weight) is its own numerator over 1 on the same loop.
``_split``/``_over_lcm``/``_ratio`` are shared with :mod:`compalg.algebra`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from operator import add

from .errors import DofMismatch
from .scalars import EPS_DUAL, I_COMPLEX, J_SPLIT

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
CLASSES = (ELLIPTIC, PARABOLIC, HYPERBOLIC)

J_UNIT = {ELLIPTIC: I_COMPLEX, PARABOLIC: EPS_DUAL, HYPERBOLIC: J_SPLIT}
J_SQUARED = {ELLIPTIC: -1, PARABOLIC: 0, HYPERBOLIC: 1}

DEFAULT_HBAR = Fraction(2)


class PhasePoly:
    """Multivariate polynomial in (q^1..q^n, p_1..p_n), exact coefficients."""

    __slots__ = ("dof", "terms")

    def __init__(self, dof: int, terms=None):
        if dof < 0:
            raise ValueError("dof must be non-negative")
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != 2 * dof:
                raise ValueError("exponent vector length must be 2*dof")
            if c == 0:
                continue
            clean[tuple(exps)] = c
        object.__setattr__(self, "dof", dof)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, dof: int, terms: dict) -> "PhasePoly":
        """A polynomial on terms the package built: keys are exponent tuples of
        length 2*dof and no value is zero, so the checks of __init__ are skipped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "dof", dof)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, *a):
        raise AttributeError("immutable polynomial")

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c, dof: int) -> "PhasePoly":
        return cls(dof, {(0,) * (2 * dof): Fraction(c) if isinstance(c, int) else c})

    @classmethod
    def q(cls, i: int = 1, dof: int = 1) -> "PhasePoly":
        e = [0] * (2 * dof)
        e[i - 1] = 1
        return cls(dof, {tuple(e): Fraction(1)})

    @classmethod
    def p(cls, i: int = 1, dof: int = 1) -> "PhasePoly":
        e = [0] * (2 * dof)
        e[dof + i - 1] = 1
        return cls(dof, {tuple(e): Fraction(1)})

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "PhasePoly"):
        if self.dof != other.dof:
            raise DofMismatch(f"dof {self.dof} vs {other.dof}")

    def __add__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self._check(other)
        # immutable, so an empty side can hand back the other operand
        if not other.terms:
            return self
        if not self.terms:
            return other
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return PhasePoly(self.dof, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PhasePoly(self.dof, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PhasePoly):
            return self.scale(other)
        self._check(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return PhasePoly(self.dof, t)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "PhasePoly":
        if isinstance(s, int):
            s = Fraction(s)
        if isinstance(s, Fraction) and s == 1:
            # rational 1 keeps every coefficient's value and ring
            return self
        return PhasePoly(self.dof, {e: s * c for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self.dof == other.dof and self.terms == other.terms

    def __hash__(self):
        return hash((self.dof, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus -----------------------------------------------------------

    def deriv(self, axis: int) -> "PhasePoly":
        """Partial derivative along coordinate axis (0..2n-1, q's first).

        Distinct terms stay distinct and k * c is nonzero for k >= 1, so the
        result needs no merging and no zero test.
        """
        t = {}
        for e, c in self.terms.items():
            k = e[axis]
            if k == 0:
                continue
            ne = list(e)
            ne[axis] = k - 1
            t[tuple(ne)] = k * c
        return PhasePoly._trusted(self.dof, t)

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def eval_float(self, coords) -> complex:
        """Numeric evaluation at real coordinates (floats)."""
        total = 0j
        for e, c in self.terms.items():
            m = 1.0
            for x, k in zip(coords, e):
                m *= x**k
            total += complex(c.real, c.imag) * m
        return total

    def canonical_str(self) -> str:
        """Terms sorted lexicographically by exponent vector."""
        if not self.terms:
            return "0"
        names = [f"q{i+1}" for i in range(self.dof)] + [
            f"p{i+1}" for i in range(self.dof)
        ]
        parts = []
        for e in sorted(self.terms):
            factors = [str(self.terms[e])]
            for name, k in zip(names, e):
                if k:
                    factors.append(f"{name}^{k}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"PhasePoly({self.canonical_str()})"


def contractions(f, g: PhasePoly):
    """Levels k = 0, 1, 2, ... of f (<->nabla)^k g, as lists of pairs.

    One contraction applies sum_i (d_qi (x) d_pi - d_pi (x) d_qi), so level
    k is sum c * a b over one pair per multi-index m of size k: a = d^m f,
    b takes the same derivatives of g with q and p swapped, and the integer
    c = k!/m! (-1)^(p-part of m) counts the orderings.  A pair is reached
    once, along the ascending axis sequence of m, and carries its last axis
    and that axis's count as two more entries.  So each derivative is taken
    once (the right one first), a vanishing pair has no successors, and the
    walk ends at the first empty level.  The left factor only needs
    ``deriv``, truthiness and ``*``; moyalpos puts a Gaussian-weighted
    polynomial there.
    """
    n = g.dof
    level, k = [(f, g, 1, 0, 0)], 0
    while level:
        yield level
        k += 1
        nxt = []
        for a, b, c, last, run in level:
            for axis in range(last, 2 * n):
                db = b.deriv(axis + n if axis < n else axis - n)
                da = a.deriv(axis) if db else None
                if da:
                    # k!/m! from (k-1)!/m'!: m's count on this axis is r
                    r = run + 1 if axis == last else 1
                    sign = 1 if axis < n else -1
                    nxt.append((da, db, sign * c * k // r, axis, r))
        level = nxt


def _split(v) -> tuple:
    """v as (numerator, denominator): a rational's integers, any other value over 1."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    return v, 1


def _over_lcm(d: dict) -> tuple:
    """(D, {k: numerator}) with D the lcm of d's denominators, so d[k] = numerator / D."""
    split = {k: _split(v) for k, v in d.items()}
    den = lcm(*(dv for _, dv in split.values()))
    return den, {k: n * (den // dv) for k, (n, dv) in split.items()}


def _ratio(n, d):
    """n / d, exact (one Fraction) for an integer numerator."""
    return Fraction(n, d) if isinstance(n, int) else n / d


def series(f: PhasePoly, g: PhasePoly, weights) -> PhasePoly:
    """sum_k weights[k] f (<->nabla)^k g over the levels of ``contractions``.

    f, g and the weights are each split once by ``_over_lcm``, so the walk
    differentiates and multiplies integer numerators.  Those of w c (a * b)
    accumulate in one dict, and each output coefficient is one division by
    the product of the three denominators.  Level k is built only when
    ``weights`` has an entry k.
    """
    if f.dof != g.dof:
        raise DofMismatch(f"dof {f.dof} vs {g.dof}")
    n = g.dof
    dw, nw = _over_lcm(dict(enumerate(weights)))
    df, nf = _over_lcm(f.terms)
    dg, ng = _over_lcm(g.terms)
    acc = {}
    walk = contractions(PhasePoly._trusted(n, nf), PhasePoly._trusted(n, ng))
    for w, level in zip(nw.values(), walk):
        if not w:
            continue
        for a, b, c, _, _ in level:
            wc = w * c
            for e, v in (a * b).terms.items():
                # zero terms and sums are dropped as PhasePoly drops them, so a
                # coefficient's ring is that of its terms since it last cancelled
                if v := v * wc:
                    if v := acc.get(e, 0) + v:
                        acc[e] = v
                    else:
                        del acc[e]
    den = dw * df * dg
    return PhasePoly._trusted(n, {e: _ratio(v, den) for e, v in acc.items()})


def nabla_power(f: PhasePoly, g: PhasePoly, k: int) -> PhasePoly:
    """k-fold bidifferential power f (<->nabla)^k g, expanded exactly."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return series(f, g, [0] * k + [1])


def poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical bracket: single bidifferential contraction."""
    return series(f, g, [0, 1])


@cache
def _weights(cls: str, hbar: Fraction, parity: int, top: int) -> tuple:
    """Weights of the even (parity 0) or odd (parity 1) half up to level top.

    J^parity is factored out, so the k-th weight is
    s^(k//2) (hbar/2)^(k - parity) / k! with s = J^2.  Once it is zero
    (k >= 2 when J^2 = 0, or hbar = 0) it stays zero, which ends them.
    Cached, so a product with known weights does no Fraction arithmetic.
    """
    s, h2 = J_SQUARED[cls], Fraction(hbar) / 2
    weights = []
    for k in range(parity, top + 1, 2):
        c = s ** (k // 2) * h2 ** (k - parity) / factorial(k)
        if not c:
            break
        weights += [0] * (k - len(weights)) + [c]
    return tuple(weights)


def _series(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction, parity: int) -> PhasePoly:
    """Even (parity 0) or odd (parity 1) half of sum_k (J hbar/2)^k/k! nabla^k.

    nabla^k vanishes once k exceeds either factor's degree, so the weights
    stop there.
    """
    return series(f, g, _weights(cls, hbar, parity, min(f.degree, g.degree)))


def alpha(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction = DEFAULT_HBAR) -> PhasePoly:
    """Skew product: sine series (elliptic), sinh (hyperbolic), bracket (parabolic)."""
    return _series(f, g, cls, hbar, 1)


def sigma(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction = DEFAULT_HBAR) -> PhasePoly:
    """Symmetric product: cosine series (elliptic), cosh (hyperbolic), product (parabolic)."""
    return _series(f, g, cls, hbar, 0)


def star(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction = DEFAULT_HBAR) -> PhasePoly:
    """Associative product sigma + (J hbar / 2) alpha over the extended ring."""
    jh2 = J_UNIT[cls] * (Fraction(hbar) / 2)
    return sigma(f, g, cls, hbar) + alpha(f, g, cls, hbar).scale(jh2)


def hbar_zero_limit(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Elliptic skew product extrapolated to hbar = 0 from hbar = 1..m.

    Its k-th term carries hbar^(k-1) with k <= m = max(1, min(deg f, deg g)),
    so alpha is a polynomial in hbar of degree below m, its m-th finite
    difference vanishes, and its value at 0 is exactly
    sum_{j=1..m} (-1)^(j-1) C(m, j) alpha(f, g, ELLIPTIC, j).  That should
    be the canonical bracket; callers compare it with ``poisson``.
    """
    m = max(1, min(f.degree, g.degree))
    total = PhasePoly(g.dof)
    for j in range(1, m + 1):
        weight = (-1) ** (j - 1) * comb(m, j)
        total = total + _series(f, g, ELLIPTIC, Fraction(j), 1).scale(weight)
    return total
