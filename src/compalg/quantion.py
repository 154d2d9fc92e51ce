"""Quantion arithmetic: a relativistic number system on 2x2 complex blocks.

Two involutions (conjugate transpose and adjugate) give two norms, one a
future-oriented four-vector and one a complex determinant, and the two
commute.  A linear spinor map carries the algebraic norm onto a Dirac
current; the gamma-matrix representation that makes the currents equal is
found by exhaustive search over standard candidates, never assumed.  The
wave operator factorizes through the same adjugate pattern applied to
Newman-Penrose derivative symbols.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import CliffordViolation, NoRepFound
from .hilbert import _gauss_draws
from .phasepoly import PhasePoly
from .scalars import I_COMPLEX

# ---------------------------------------------------------------------------
# Core arithmetic on the reduced representation q = [[a, c], [b, d]]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quantion:
    """Reduced form of a block-diagonal pair; entries any complex-like ring."""

    a: complex
    b: complex
    c: complex
    d: complex

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.c], [self.b, self.d]], dtype=complex)


Q_ONE = Quantion(1, 0, 0, 1)


def q_mul(x: Quantion, y: Quantion) -> Quantion:
    """2x2 matrix product on the reduced forms."""
    return Quantion(
        x.a * y.a + x.c * y.b,
        x.b * y.a + x.d * y.b,
        x.a * y.c + x.c * y.d,
        x.b * y.c + x.d * y.d,
    )


def q_dagger(x: Quantion) -> Quantion:
    """Conjugate transpose."""
    return Quantion(x.a.conjugate(), x.c.conjugate(), x.b.conjugate(), x.d.conjugate())


def q_sharp(x: Quantion) -> Quantion:
    """Adjugate [[d, -c], [-b, a]], the metric dual."""
    return Quantion(x.d, -x.b, -x.c, x.a)


def q_det(x: Quantion):
    return x.a * x.d - x.b * x.c


# ---------------------------------------------------------------------------
# The two norms
# ---------------------------------------------------------------------------

PAULI = {
    "t": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class FourVector:
    t: float
    x: float
    y: float
    z: float

    def future_oriented(self, tol: float = 1e-12) -> bool:
        return self.t >= (self.x**2 + self.y**2 + self.z**2) ** 0.5 - tol


def anorm(q: Quantion) -> FourVector:
    """Algebraic norm Q†Q expanded over {I, sigma_x, sigma_y, sigma_z}.

    The expansion coefficients of the Hermitian matrix t I + x sx + y sy
    + z sz read off as t = tr/2, z = (m00 - m11)/2, x = Re m10, y = Im m10.
    """
    m = q_mul(q_dagger(q), q).as_matrix()
    t = (m[0, 0] + m[1, 1]).real / 2.0
    z = (m[0, 0] - m[1, 1]).real / 2.0
    x = m[1, 0].real
    y = m[1, 0].imag
    return FourVector(t, x, y, z)


def norms_commute(q: Quantion, tol: float = 1e-12) -> bool:
    """A(M(Q)) = M(A(Q)) as matrices: both equal |det q|^2 I."""
    am = q_mul(q_dagger(q_mul(q_sharp(q), q)), q_mul(q_sharp(q), q))
    ma = q_mul(q_sharp(q_mul(q_dagger(q), q)), q_mul(q_dagger(q), q))
    diff = am.as_matrix() - ma.as_matrix()
    return float(np.max(np.abs(diff))) <= tol


def sample_quantion(rng: random.Random, scale: float = 2.0) -> Quantion:
    x = _gauss_draws(rng, 8, scale)
    return Quantion(*map(complex, x[0::2], x[1::2]))


# ---------------------------------------------------------------------------
# Spinor bridge and the Dirac current
# ---------------------------------------------------------------------------

SQRT2 = 2.0**0.5


def to_spinor(q: Quantion) -> np.ndarray:
    """Psi = (1/sqrt 2) (c, -a, b*, d*)."""
    return np.array(
        [q.c, -q.a, q.b.conjugate(), q.d.conjugate()], dtype=complex
    ) / SQRT2


ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _gamma_dirac() -> list:
    g0 = np.block(
        [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]
    ).astype(complex)
    gs = [
        np.block([[np.zeros((2, 2)), PAULI[k]], [-PAULI[k], np.zeros((2, 2))]])
        for k in ("x", "y", "z")
    ]
    return [g0] + gs


def _gamma_weyl() -> list:
    z = np.zeros((2, 2))
    g0 = np.block([[z, np.eye(2)], [np.eye(2), z]]).astype(complex)
    gs = [
        np.block([[z, PAULI[k]], [-PAULI[k], z]]) for k in ("x", "y", "z")
    ]
    return [g0] + gs


@dataclass(frozen=True)
class GammaRep:
    """A labelled candidate set of gamma matrices.

    ``checked`` memoizes the verdict of ``clifford_check`` on ``gammas``, so
    each rep is validated once however many currents it computes.  Reps
    compare and hash by ``label``: the numpy ``gammas`` have no truth value
    and no hash.
    """

    label: str
    gammas: tuple = field(compare=False)
    checked: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def clifford_check(gammas, tol: float = 1e-12) -> bool:
    for mu in range(4):
        for nu in range(4):
            anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
            want = 2.0 * ETA[mu, nu] * np.eye(4)
            if float(np.max(np.abs(anti - want))) > tol:
                return False
    return True


def candidate_reps() -> list:
    """Dirac and Weyl bases with spatial sign flips and permutations.

    Sign flips and renumberings of the spatial gammas preserve the
    Clifford relations, so every candidate is a legitimate representation;
    only one family can reproduce the quantionic current.
    """
    out = []
    for base_label, base in (("dirac", _gamma_dirac()), ("weyl", _gamma_weyl())):
        for perm in itertools.permutations((1, 2, 3)):
            for signs in itertools.product((1, -1), repeat=3):
                gs = [base[0]] + [
                    signs[i] * base[perm[i]] for i in range(3)
                ]
                label = f"{base_label}-perm{perm}-signs{signs}"
                out.append(GammaRep(label, tuple(gs)))
    return out


def dirac_current(psi: np.ndarray, gammas) -> np.ndarray:
    """j^mu = Psi† gamma^0 gamma^mu Psi (real for valid representations)."""
    g0 = gammas[0]
    return np.array(
        [(psi.conj() @ (g0 @ g @ psi)).real for g in gammas]
    )


def dirac_current_check(q: Quantion, rep: GammaRep, tol: float = 1e-12) -> bool:
    """anorm components equal the spinor current in the given representation."""
    if "clifford" not in rep.checked:
        rep.checked["clifford"] = clifford_check(rep.gammas)
    if not rep.checked["clifford"]:
        raise CliffordViolation(rep.label)
    a = anorm(q)
    j = dirac_current(to_spinor(q), rep.gammas)
    lhs = np.array([a.t, a.x, a.y, a.z])
    return float(np.max(np.abs(lhs - j))) <= tol * max(1.0, float(np.max(np.abs(lhs))))


def _probe_set(seed: int) -> list:
    rng = random.Random(seed)
    return [sample_quantion(rng) for _ in range(20)]


def rep_discovery(seed: int = 0) -> GammaRep:
    """The unique candidate family reproducing the current on a probe set.

    Candidates related by an overall spatial reflection act identically on
    every probe current component-wise only if they agree as maps; the
    winner reported is the lexicographically first passing label, and a
    disjoint probe set must reproduce it.
    """
    probes = _probe_set(seed)
    winners = []
    for rep in candidate_reps():
        if all(dirac_current_check(q, rep, 1e-9) for q in probes):
            winners.append(rep)
    if not winners:
        raise NoRepFound("no candidate gamma family matches the current")
    winners.sort(key=lambda r: r.label)
    best = winners[0]
    recheck = _probe_set(seed + 1)
    if not all(dirac_current_check(q, best, 1e-9) for q in recheck):
        raise NoRepFound("discovered representation unstable across probe sets")
    return best


# ---------------------------------------------------------------------------
# d'Alembertian factorization via Newman-Penrose symbols
# ---------------------------------------------------------------------------
#
# Polynomials in x^0..x^3 are PhasePoly with dof = 2 (axes 0..3) over
# ComplexRational coefficients; D = d0 + d3, delta = d1 + i d2, Delta = d0 - d3.


def _np_ops(P: PhasePoly):
    d0, d1, d2, d3 = (P.deriv(k) for k in range(4))
    D = d0 + d3
    delta = d1 + d2.scale(I_COMPLEX)
    delta_bar = d1 - d2.scale(I_COMPLEX)
    Delta = d0 - d3
    return D, delta, delta_bar, Delta


def np_apply(P: PhasePoly) -> tuple:
    """The 2x2 derivative matrix [[D, delta], [delta*, Delta]] on (P, P)."""
    D, delta, delta_bar, Delta = _np_ops(P)
    return (D + delta, delta_bar + Delta)


def np_sharp_apply(v: tuple) -> tuple:
    """The adjugate pattern [[Delta, -delta], [-delta*, D]] on a pair."""
    u, w = v
    Du, du, dbu, Deltau = _np_ops(u)
    Dw, dw, dbw, Deltaw = _np_ops(w)
    return (Deltau - dw, -dbu + Dw)


def box(P: PhasePoly) -> PhasePoly:
    """Wave operator d0^2 - d1^2 - d2^2 - d3^2."""
    return (
        P.deriv(0).deriv(0)
        - P.deriv(1).deriv(1)
        - P.deriv(2).deriv(2)
        - P.deriv(3).deriv(3)
    )


def dalembertian_factorization(P: PhasePoly) -> bool:
    """Exact check that the adjugate of the symbol matrix inverts it to box.

    Applies the operator matrix entrywise to the constant vector (P, P)
    and compares with (box P, box P) in exact polynomial arithmetic.
    """
    if P.dof != 2:
        raise ValueError("need four variables: use dof = 2")
    if P.degree > 6:
        raise ValueError("degree cap is 6")
    bp = box(P)
    out = np_sharp_apply(np_apply(P))
    return out[0] == bp and out[1] == bp

