"""Exact polynomial algebra on flat phase space R^2n.

Coordinates are ordered q^1..q^n, p_1..p_n.  Coefficients live in any of
the exact scalar rings from :mod:`compalg.scalars` (or plain Fractions);
every bracket and star-product series terminates on polynomials, so all
identities here are decidable by structural equality.

One bidifferential engine serves every product: ``contractions`` expands
f (<->nabla)^k g into signed derivative pairs, and the three classes differ
only in J^2 (-1, 0, +1) inside the one series sum_k (J hbar/2)^k/k! nabla^k,
whose even half is ``sigma`` and whose odd half (J factored out) is ``alpha``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

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
                e = tuple(a + b for a, b in zip(e1, e2))
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
        """Partial derivative along coordinate axis (0..2n-1, q's first)."""
        t = {}
        for e, c in self.terms.items():
            k = e[axis]
            if k == 0:
                continue
            ne = list(e)
            ne[axis] = k - 1
            ne = tuple(ne)
            t[ne] = t.get(ne, 0) + k * c
        return PhasePoly(self.dof, t)

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
            total += _to_complex(c) * m
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


def _to_complex(c) -> complex:
    if isinstance(c, (int, Fraction, float)):
        return complex(float(c), 0.0)
    # two-component exact scalars: meaningful numerically only for the
    # complex ring; callers keep split/dual coefficients exact
    return complex(float(c.re), float(c.im))


def contractions(f, g: PhasePoly, k: int):
    """Signed derivative pairs (a, b, c) with f (<->nabla)^k g = sum c * a b.

    One contraction applies sum_i (d_qi (x) d_pi - d_pi (x) d_qi) between
    the left and right factor; k = 0 yields the pair (f, g, 1).  Only
    ``deriv``, truthiness and ``g.dof`` are used, so the left factor may be
    anything that differentiates (moyalpos puts a Gaussian-weighted
    polynomial there).  The left factor is differentiated only where the
    right one's derivative survives, and vanishing pairs are dropped.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        yield f, g, 1
        return
    n = g.dof
    for a, b, c in contractions(f, g, k - 1):
        for i in range(n):
            for a_axis, b_axis, sign in ((i, n + i, c), (n + i, i, -c)):
                db = b.deriv(b_axis)
                if db:
                    da = a.deriv(a_axis)
                    if da:
                        yield da, db, sign


def nabla_power(f: PhasePoly, g: PhasePoly, k: int) -> PhasePoly:
    """k-fold bidifferential power f (<->nabla)^k g, expanded exactly."""
    f._check(g)
    total = PhasePoly(f.dof)
    for a, b, c in contractions(f, g, k):
        total = total + (a * b).scale(c)
    return total


def poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical bracket: single bidifferential contraction."""
    return nabla_power(f, g, 1)


def _series(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction, parity: int) -> PhasePoly:
    """Even (parity 0) or odd (parity 1) half of sum_k (J hbar/2)^k/k! nabla^k.

    J^parity is factored out, so the k-th coefficient is
    s^(k//2) (hbar/2)^(k - parity) / k! with s = J^2.  Once it is zero
    (k >= 2 when J^2 = 0, or hbar = 0) it stays zero, and nabla^k vanishes
    once k exceeds either factor's degree; either ends the sum.
    """
    f._check(g)
    s, h2 = J_SQUARED[cls], Fraction(hbar) / 2
    total = PhasePoly(f.dof)
    for k in range(parity, min(f.degree, g.degree) + 1, 2):
        c = s ** (k // 2) * h2 ** (k - parity) / factorial(k)
        if not c:
            break
        total = total + nabla_power(f, g, k).scale(c)
    return total


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
    """Elliptic skew product alpha(f, g, ELLIPTIC, 0), summed by the same series.

    The k-th term carries hbar^(k-1), so at hbar = 0 only k = 1 survives
    and the result should be the canonical bracket; callers compare it
    with ``poisson``.
    """
    return _series(f, g, ELLIPTIC, Fraction(0), 1)
