"""Positivity laboratory on flat phase space.

States are Gaussian-weighted polynomials, integrated exactly via Gaussian
moments with pi carried as a formal power.  Star products keep one
polynomial factor so every series terminates; they expand over the same
``phasepoly.contractions`` engine as the polynomial products, with the
Gaussian-weighted factor on the left.  The functional <g* star g> is
then an exact rational (or split-complex) number, which makes the
elliptic/hyperbolic positivity split decidable, not numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ExhaustedWithoutWitness, NonNormalized, UnsupportedLevel
from .phasepoly import (
    ELLIPTIC,
    HYPERBOLIC,
    J_UNIT,
    PhasePoly,
    contractions,
    star,
)
from .scalars import I_COMPLEX, J_SPLIT, SplitComplex


def _conj_coeff(c):
    if isinstance(c, (int, Fraction)):
        return c
    return c.conj()


def poly_conj(f: PhasePoly) -> PhasePoly:
    """Coefficient-wise involution (identity on rational coefficients)."""
    return PhasePoly(f.dof, {e: _conj_coeff(c) for e, c in f.terms.items()})


class GaussPoly:
    """P(q, p) * exp(-(sum q_i^2 + p_i^2)/s) * pi^pi_exp, all data exact."""

    __slots__ = ("s", "poly", "pi_exp")

    def __init__(self, s: Fraction, poly: PhasePoly, pi_exp: int = 0):
        s = Fraction(s)
        if s <= 0:
            raise ValueError("envelope width must be positive")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "pi_exp", pi_exp)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def dof(self) -> int:
        return self.poly.dof

    def __bool__(self):
        return bool(self.poly)

    def deriv(self, axis: int) -> "GaussPoly":
        """Product rule: d(P e^env) = (dP - (2 x_axis / s) P) e^env."""
        n = self.dof
        e = [0] * (2 * n)
        e[axis] = 1
        x = PhasePoly(n, {tuple(e): Fraction(1)})
        new = self.poly.deriv(axis) - (x * self.poly).scale(Fraction(2) / self.s)
        return GaussPoly(self.s, new, self.pi_exp)

    def mul_poly(self, g: PhasePoly) -> "GaussPoly":
        return GaussPoly(self.s, self.poly * g, self.pi_exp)

    def mul_gauss(self, other: "GaussPoly") -> "GaussPoly":
        """Envelopes multiply: widths combine harmonically."""
        s = 1 / (1 / self.s + 1 / other.s)
        return GaussPoly(s, self.poly * other.poly, self.pi_exp + other.pi_exp)

    def conj(self) -> "GaussPoly":
        return GaussPoly(self.s, poly_conj(self.poly), self.pi_exp)

    def scale(self, c) -> "GaussPoly":
        return GaussPoly(self.s, self.poly.scale(c), self.pi_exp)

    def add(self, other: "GaussPoly") -> "GaussPoly":
        if self.s != other.s or self.pi_exp != other.pi_exp:
            raise ValueError("mismatched envelope or pi power")
        return GaussPoly(self.s, self.poly + other.poly, self.pi_exp)


def _double_factorial_odd(m: int) -> int:
    # (2m-1)!! = (2m)! / (2^m m!)
    return factorial(2 * m) // (2**m * factorial(m))


def _moment(k: int, s: Fraction) -> Fraction:
    """integral x^k exp(-x^2/s) dx divided by sqrt(pi s); zero for odd k."""
    if k % 2:
        return Fraction(0)
    m = k // 2
    return _double_factorial_odd(m) * (s / 2) ** m


def integrate(gp: GaussPoly):
    """Exact integral over R^2n as (value, pi_exponent).

    Each variable contributes sqrt(pi s) times a rational moment, so 2n
    variables give an overall pi^n s^n rational prefactor.
    """
    n = gp.dof
    total = Fraction(0)
    for e, c in gp.poly.terms.items():
        m = Fraction(1)
        for k in e:
            m *= _moment(k, gp.s)
            if m == 0:
                break
        if m:
            total = total + c * (m * gp.s**n)
    return total, gp.pi_exp + n


FOCK_LEVELS = (0, 1, 2)


def fock_wigner(m: int, hbar: Fraction = Fraction(2)) -> GaussPoly:
    """Laguerre-form phase-space state of oscillator level m, dof = 1.

    Normalized so the exact integral is 1; levels above 2 are refused so
    every closed form stays auditable.
    """
    if m not in FOCK_LEVELS:
        raise UnsupportedLevel(f"level {m} has no audited closed form")
    hbar = Fraction(hbar)
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    q, p = PhasePoly.q(), PhasePoly.p()
    x = (q * q + p * p).scale(Fraction(2) / hbar)
    one = PhasePoly.const(1, 1)
    if m == 0:
        lag = one
    elif m == 1:
        lag = one - x
    else:
        lag = one - x.scale(2) + (x * x).scale(Fraction(1, 2))
    sign = Fraction(-1) ** m
    gp = GaussPoly(hbar, lag.scale(sign / hbar), pi_exp=-1)
    val, pexp = integrate(gp)
    assert (val, pexp) == (1, 0), "normalization failed"
    return gp


def star_gp(
    F: GaussPoly,
    g: PhasePoly,
    side: str = "left",
    cls: str = ELLIPTIC,
    hbar: Fraction = Fraction(2),
) -> GaussPoly:
    """F star g (side="left") or g star F (side="right") as a finite sum.

    The associative product expands as sum_k (J hbar/2)^k / k! nabla^k over
    the shared ``contractions`` engine; swapping the factors flips the sign
    of every contraction, so g star F uses (-J hbar/2)^k.  The series
    terminates at k = deg g because each contraction spends one derivative
    on the polynomial factor.
    """
    if cls not in (ELLIPTIC, HYPERBOLIC):
        raise ValueError("class must be elliptic or hyperbolic")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    h2 = Fraction(hbar) / 2
    jh2 = J_UNIT[cls] * (h2 if side == "left" else -h2)
    out = GaussPoly(F.s, PhasePoly(F.dof), F.pi_exp)
    for k in range(0, g.degree + 1):
        term = GaussPoly(F.s, PhasePoly(F.dof), F.pi_exp)
        for a, b, c in contractions(F, g, k):
            term = term.add(a.mul_poly(b).scale(c))
        # a rational 1 at k = 0 keeps the plain product's coefficients rational
        out = out.add(term.scale(jh2**k / factorial(k) if k else 1))
    return out


def _real_part(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return v.re


def positivity_functional(
    F: GaussPoly, g: PhasePoly, cls: str, hbar: Fraction = Fraction(2)
):
    """integral (g* star g) F over phase space, exact.

    In the elliptic class with a ground-state F (constant polynomial
    factor), the result is cross-checked against the chain equality
    integral (g* star g) F = (2 pi hbar) integral (g star F)* (g star F);
    the test function sits on the side of F that the ground state
    annihilates under this sign convention for the bidifferential.
    The full chain needs F to be a star-idempotent, which the Gaussian is
    only for the elliptic product; the purity-free part of the chain is
    exposed separately as chain_identity_check and holds in both classes.
    """
    hbar = Fraction(hbar)
    val, pexp = integrate(F)
    if (val, pexp) != (1, 0):
        raise NonNormalized(f"state integrates to {val} * pi^{pexp}")
    h = star(poly_conj(g), g, cls, hbar)
    out, out_pexp = integrate(F.mul_poly(h))
    if out_pexp != 0 and out != 0:
        raise AssertionError("functional did not normalize to pi^0")
    if cls == ELLIPTIC and F.poly.degree == 0:
        fg = star_gp(F, g, "right", cls, hbar)
        sq = fg.conj().mul_gauss(fg)
        rhs, rhs_pexp = integrate(sq)
        rhs = rhs * 2 * hbar
        rhs_pexp += 1
        if (out, 0 if out == 0 else out_pexp) != (rhs, 0 if rhs == 0 else rhs_pexp):
            raise AssertionError("chain equality failed")
    return out


def chain_identity_check(
    F: GaussPoly, g: PhasePoly, cls: str, hbar: Fraction = Fraction(2)
) -> bool:
    """integral (g* star g) F = integral g-bar (g star F), pointwise, exact.

    This is the associativity-plus-trace part of the positivity chain; it
    holds in both classes, with the indefinite involution in the
    hyperbolic one.  The remaining elliptic-only step (pulling out
    2 pi hbar via star-idempotence of F) lives in positivity_functional.
    """
    hbar = Fraction(hbar)
    lhs = integrate(F.mul_poly(star(poly_conj(g), g, cls, hbar)))
    gF = star_gp(F, g, "right", cls, hbar)
    rhs = integrate(gF.mul_poly(poly_conj(g)))
    return lhs == rhs


@dataclass(frozen=True)
class GhostWitness:
    """Lattice test function whose functional value is exactly negative."""

    coeffs: tuple
    value_real: Fraction
    canonical: str


def _lattice_poly(c1, c2, c3, c4, c5, unit) -> PhasePoly:
    q, p = PhasePoly.q(), PhasePoly.p()
    one = PhasePoly.const(1, 1)
    return (
        one.scale(Fraction(c1))
        + q.scale(Fraction(c2) + unit * Fraction(c4))
        + p.scale(Fraction(c3) + unit * Fraction(c5))
    )


def lattice_points(bound: int = 2):
    """Lexicographic coefficient tuples for g = c1 + (c2+jc4)q + (c3+jc5)p."""
    rng = range(-bound, bound + 1)
    for c1 in rng:
        for c2 in rng:
            for c3 in rng:
                for c4 in rng:
                    for c5 in rng:
                        yield (c1, c2, c3, c4, c5)


def ghost_search(hbar: Fraction = Fraction(2), bound: int = 2) -> GhostWitness:
    """First (lexicographic) lattice witness of hyperbolic non-positivity.

    The enumeration order is fixed, so the reported witness is bit-for-bit
    reproducible regardless of how the sweep is scheduled.
    """
    hbar = Fraction(hbar)
    F = fock_wigner(0, hbar)
    for coeffs in lattice_points(bound):
        g = _lattice_poly(*coeffs, unit=J_SPLIT)
        val = positivity_functional(F, g, HYPERBOLIC, hbar)
        if _real_part(val) < 0:
            return GhostWitness(coeffs, _real_part(val), g.canonical_str())
    raise ExhaustedWithoutWitness(f"no negative value on lattice bound {bound}")


def elliptic_control_sweep(
    hbar: Fraction = Fraction(2), bound: int = 2, levels=(0, 1)
) -> Fraction:
    """Minimum of the functional over the same lattice in the elliptic class.

    Acceptance requires this to be >= 0 exactly for levels 0 and 1.
    """
    hbar = Fraction(hbar)
    best = None
    for m in levels:
        F = fock_wigner(m, hbar)
        for coeffs in lattice_points(bound):
            g = _lattice_poly(*coeffs, unit=I_COMPLEX)
            r = _real_part(positivity_functional(F, g, ELLIPTIC, hbar))
            if best is None or r < best:
                best = r
    return best
