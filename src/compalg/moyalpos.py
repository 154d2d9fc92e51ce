"""Positivity laboratory on flat phase space.

States are Gaussian-weighted polynomials, integrated exactly via Gaussian
moments with pi carried as a formal power; ``integrate`` pairs a state
with a polynomial on their integer numerators, one sum per half-degree,
without building their product.  Star products keep one
polynomial factor so every series terminates.  On the one degree of
freedom of the Fock states, level k of the series is the closed form
sum_j C(k, j) (-1)^(k-j) d_q^j d_p^(k-j) (x) d_p^j d_q^(k-j), applied with
``deriv`` and the Gaussian-weighted factor on the left (the polynomial
products' integer tables need a monomial there, and the Gaussian's
derivatives are not finite sums of monomials).  The functional
<g* star g> is then an exact rational (or split-complex) number, which
makes the elliptic/hyperbolic positivity split decidable, not numeric.
One path, ``_pairings``, computes it: the matrix of pairings of the state
with the products g_i* star g_j, with one normalization check and, for an
elliptic ground state, one chain-equality check.  The functional of one g
is its 1x1 matrix.  It is sesquilinear in the coefficients of g, so the
lattice sweeps read it off one exact 3x3 Gram matrix over {1, q, p} per
state instead of expanding a star product at every lattice point, as an
integer quadratic form evaluated on integer arrays, one per value of the
leading coordinate (int64 while the form's bound allows it, Python ints
beyond), so the ghost search stops at the first array that holds a
negative value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import comb, factorial, lcm, prod

import numpy as np

from .errors import ExhaustedWithoutWitness, NonNormalized, UnsupportedLevel
from .phasepoly import ELLIPTIC, HYPERBOLIC, J_UNIT, PhasePoly, _ratio, star
from .scalars import J_SPLIT


def poly_conj(f: PhasePoly) -> PhasePoly:
    """Coefficient-wise involution (identity on rational coefficients)."""
    return PhasePoly._canonical(f.dof, f.den, {e: n.conjugate() for e, n in f.nums.items()})


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

    def deriv(self, axis: int) -> "GaussPoly":
        """Product rule: d(P e^env) = (dP - (2 x_axis / s) P) e^env."""
        n = self.dof
        e = [0] * (2 * n)
        e[axis] = 1
        x = PhasePoly(n, {tuple(e): Fraction(1)})
        new = self.poly.deriv(axis) - (x * self.poly).scale(Fraction(2) / self.s)
        return GaussPoly(self.s, new, self.pi_exp)

    def __mul__(self, g: PhasePoly) -> "GaussPoly":
        return GaussPoly(self.s, self.poly * g, self.pi_exp)

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        if self.s != other.s or self.pi_exp != other.pi_exp:
            raise ValueError("mismatched envelope or pi power")
        return GaussPoly(self.s, self.poly + other.poly, self.pi_exp)


def integrate(F: GaussPoly, h: PhasePoly | None = None):
    """Exact integral of F h (h = 1 if not given) over R^2n as (value, pi_exponent).

    Each of the 2n variables gives sqrt(pi s) times its moment, (k-1)!!
    (s/2)^(k/2) for even k and 0 for odd k.  A pair of terms of F and h with
    even exponent sums k_i adds its numerators' product times prod (k_i-1)!!
    to the integer sum S_m of half-degree m = sum k_i / 2.  With s/2 = a/b
    the value is sum_m S_m a^(m+n) b^(top-m) / (b^top (b/2)^n) over the
    denominators of F and h: integers up to one Fraction, and F h never built.
    """
    if h is None:
        h = PhasePoly.const(1, F.dof)
    F.poly._check(h)
    sums = {}
    for e1, c1 in F.poly.nums.items():
        for e2, c2 in h.nums.items():
            ks = [a + b for a, b in zip(e1, e2)]
            if not any(k % 2 for k in ks):
                m = sum(ks) // 2
                sums[m] = sums.get(m, 0) + c1 * c2 * prod(prod(range(k - 1, 0, -2)) for k in ks)
    a, b, n, top = F.s.numerator, 2 * F.s.denominator, F.dof, max(sums, default=0)
    num = sum(c * a**m * b ** (top - m) for m, c in sums.items()) * a**n
    return _ratio(num, b**top * (b // 2) ** n * F.poly.den * h.den), F.pi_exp + n


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
    if (val, pexp) != (1, 0):
        raise AssertionError("normalization failed")
    return gp


def star_gp(
    F: GaussPoly,
    g: PhasePoly,
    side: str = "left",
    cls: str = ELLIPTIC,
    hbar: Fraction = Fraction(2),
) -> GaussPoly:
    """F star g (side="left") or g star F (side="right") as a finite sum.

    On one degree of freedom level k of the series is the closed form
    sum_j C(k, j) (-1)^(k-j) (d_q^j d_p^(k-j) F) (d_p^j d_q^(k-j) g),
    weighted by (J hbar/2)^k / k!; swapping the factors flips the sign of
    every contraction, so g star F uses (-J hbar/2)^k.  The series
    terminates at k = deg g because each contraction spends one derivative
    on the polynomial factor.
    """
    if cls not in (ELLIPTIC, HYPERBOLIC):
        raise ValueError("class must be elliptic or hyperbolic")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if F.dof != 1 or g.dof != 1:
        raise ValueError("star_gp is implemented for one degree of freedom")
    h2 = Fraction(hbar) / 2
    jh2 = J_UNIT[cls] * (h2 if side == "left" else -h2)
    total = F * g  # level 0, whose rational weight 1 keeps the coefficients rational
    for k in range(1, g.degree + 1):
        w = jh2**k / factorial(k)
        for j in range(k + 1):
            b = _derivs(g, k - j, j)
            if b:
                a = _derivs(F, j, k - j)
                total = total + a * b.scale(w * comb(k, j) * (-1) ** (k - j))
    return total


def _derivs(x, dq: int, dp: int):
    """d_q^dq d_p^dp x on one degree of freedom."""
    for axis in (0,) * dq + (1,) * dp:
        x = x.deriv(axis)
    return x


def _pairings(F: GaussPoly, gs, cls: str, hbar: Fraction) -> list:
    """[[integral F (g_i* star g_j)]] over the test functions gs, exact.

    Each entry is one pairing integrate(F, g_i* star g_j).  For an elliptic
    ground state F (constant polynomial factor) the chain equality
    integral F (g_i* star g_j) = 2 pi hbar integral (g_i star F)* (g_j star F)
    is checked on the whole matrix, pairing (g_i star F)* with g_j star F
    under their product envelope (width s/2).  The test functions sit on the
    side of F that the ground state annihilates under this sign convention
    for the bidifferential; the full chain needs F to be a star-idempotent,
    which the Gaussian is only for the elliptic product.  No pi power is
    compared: normalization fixes F.pi_exp = -dof, so a pairing with F has
    pi^0, and 2 pi hbar times a pairing under the product envelope has
    pi^(2 F.pi_exp + dof + 1) = pi^0 on the one dof that star_gp admits.
    """
    hbar = Fraction(hbar)
    val, pexp = integrate(F)
    if (val, pexp) != (1, 0):
        raise NonNormalized(f"state integrates to {val} * pi^{pexp}")
    G = [[integrate(F, star(gi, gj, cls, hbar))[0] for gj in gs] for gi in map(poly_conj, gs)]
    if cls == ELLIPTIC and F.poly.degree == 0:
        gF = [star_gp(F, g, "right", cls, hbar).poly for g in gs]
        for i, row in enumerate(G):
            left = GaussPoly(F.s / 2, poly_conj(gF[i]), 2 * F.pi_exp)
            for j, out in enumerate(row):
                if out != 2 * hbar * integrate(left, gF[j])[0]:
                    raise AssertionError("chain equality failed")
    return G


def positivity_functional(
    F: GaussPoly, g: PhasePoly, cls: str, hbar: Fraction = Fraction(2)
):
    """integral (g* star g) F over phase space, exact: the 1x1 ``_pairings``
    of g, so an elliptic ground state also checks the chain equality on g."""
    return _pairings(F, (g,), cls, hbar)[0][0]


@dataclass(frozen=True)
class GhostWitness:
    """Lattice test function whose functional value is exactly negative.

    ``evaluated`` counts the lattice points walked up to and including it.
    """

    coeffs: tuple
    value_real: Fraction
    canonical: str
    evaluated: int


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
    return product(range(-bound, bound + 1), repeat=5)


def _gram(F: GaussPoly, cls: str, hbar: Fraction) -> list:
    """G_ij = integral F (e_i star e_j), e = (1, q, p): ``_pairings`` on the basis.

    The functional is sesquilinear, so <g* star g> = sum conj(a_i) a_j G_ij
    for g = sum a_i e_i, and for an elliptic ground state the chain equality
    checked on the whole matrix covers every g in span{1, q, p} at once.
    """
    return _pairings(F, (PhasePoly.const(1, 1), PhasePoly.q(), PhasePoly.p()), cls, hbar)


# lattice coordinate a multiplies u_a e_(i_a) in g = c1 + (c2+Jc4)q + (c3+Jc5)p
_LATTICE_AXES = (0, 1, 2, 1, 2)


def _lattice_form(G: list, cls: str) -> tuple:
    """Integer 5x5 form N and denominator D with <g* star g> real part
    = sum_ab c_a c_b N_ab / D, where N_ab / D = Re(conj(u_a) u_b G_(i_a i_b))
    and u = (1, 1, 1, J, J)."""
    u = (1, 1, 1, J_UNIT[cls], J_UNIT[cls])
    Q = [
        [(u[a].conjugate() * u[b] * G[i][j]).real for b, j in enumerate(_LATTICE_AXES)]
        for a, i in enumerate(_LATTICE_AXES)
    ]
    D = lcm(*(x.denominator for row in Q for x in row))
    return [[int(x * D) for x in row] for row in Q], D


def _lattice_chunks(N: list, bound: int):
    """sum_ab c_a c_b N_ab over ``lattice_points(bound)``, in its order: one
    integer array per value of the leading coordinate c_0.

    With c = (c_0, r), the value is N_00 c_0^2 + c_0 (l . r) + r^T N' r, where
    l_b = N_0b + N_b0 and N' is N without its first row and column (N need
    not be symmetric).  The tail terms l . r and r^T N' r are built once on
    the grid of r, one broadcast coordinate axis per entry of r, and each
    chunk is one multiply-add on them.  No entry of N and no partial sum
    exceeds max(bound, 1)^2 sum|N_ab| in magnitude, so the arrays are int64
    below 2**62 and Python ints (dtype object) above it.
    """
    n = len(N)
    m = 2 * bound + 1
    if m <= 0:  # a negative bound is an empty lattice
        return
    dtype = np.int64 if max(bound, 1) ** 2 * sum(abs(x) for row in N for x in row) < 2**62 else object
    axis = np.arange(-bound, bound + 1, dtype=dtype)
    r = [axis.reshape([m if a == b else 1 for a in range(n - 1)]) for b in range(n - 1)]
    lin = np.zeros((m,) * (n - 1), dtype)
    quad = np.zeros((m,) * (n - 1), dtype)
    for a in range(1, n):
        lin += (N[0][a] + N[a][0]) * r[a - 1]
        for b in range(1, n):
            quad += N[a][b] * (r[a - 1] * r[b - 1])
    lin, quad = lin.ravel(), quad.ravel()
    for c in range(-bound, bound + 1):
        yield N[0][0] * c * c + c * lin + quad


def ghost_search(hbar: Fraction = Fraction(2), bound: int = 2) -> GhostWitness:
    """First (lexicographic) lattice witness of hyperbolic non-positivity.

    The enumeration order is fixed, so the reported witness is bit-for-bit
    reproducible regardless of how the sweep is scheduled.
    """
    hbar = Fraction(hbar)
    N, D = _lattice_form(_gram(fock_wigner(0, hbar), HYPERBOLIC, hbar), HYPERBOLIC)
    for i, chunk in enumerate(_lattice_chunks(N, bound)):
        if chunk.min() < 0:
            j, v = next((j, v) for j, v in enumerate(chunk.tolist()) if v < 0)
            k = i * chunk.size + j  # the point's index in lattice_points order
            coeffs = next(islice(lattice_points(bound), k, None))
            g = _lattice_poly(*coeffs, unit=J_SPLIT)
            return GhostWitness(coeffs, Fraction(v, D), g.canonical_str(), k + 1)
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
        N, D = _lattice_form(_gram(fock_wigner(m, hbar), ELLIPTIC, hbar), ELLIPTIC)
        r = Fraction(min(int(chunk.min()) for chunk in _lattice_chunks(N, bound)), D)
        if best is None or r < best:
            best = r
    return best
