"""Swap-symmetry equivalence on bipartite pure states.

Any phase unitary diagonal in the Schmidt basis of the system side is
undone by a counter-unitary on the environment side; the constructions
for reflexivity, symmetry, and transitivity are assembled literally and
checked numerically.  Only Schmidt-diagonal unitaries are in scope: that
is exactly the family the constructive proofs cover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import DimensionBlowup, NotSchmidtDiagonal
from .hilbert import _gauss_draws


@dataclass(frozen=True)
class PureState:
    """Unit-norm state on a bipartite (or longer) tensor product."""

    dims: tuple
    amplitudes: np.ndarray  # flat, length prod(dims)

    def __post_init__(self):
        n = float(np.linalg.norm(self.amplitudes))
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"state norm {n} != 1")

    def matrix(self) -> np.ndarray:
        d1, d2 = self.dims
        return self.amplitudes.reshape(d1, d2)


def random_state(rng: random.Random, d1: int, d2: int) -> PureState:
    v = np.array(_gauss_draws(rng, 2 * d1 * d2, 1)).view(complex)
    return PureState((d1, d2), v / np.linalg.norm(v))


def bell_state() -> PureState:
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    return PureState((2, 2), v)


# ---------------------------------------------------------------------------
# Schmidt decomposition with a deterministic phase convention
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchmidtForm:
    """Descending coefficients with orthonormal bases on both factors."""

    lambdas: np.ndarray  # length min(d1, d2), descending, >= 0
    left: np.ndarray  # d1 x r, columns |a_k>
    right: np.ndarray  # d2 x r, columns |b_k>

    def reconstruct(self) -> np.ndarray:
        # amplitudes m[i, j] = sum_k lambda_k a_k[i] b_k[j]
        return (self.left * self.lambdas) @ self.right.T


def schmidt(state: PureState) -> SchmidtForm:
    """SVD of the coefficient matrix, phases fixed deterministically.

    Each left singular vector is rotated so its first non-negligible
    component is real positive; the partner column absorbs the inverse
    phase, keeping the reconstruction exact.
    """
    m = state.matrix()
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    right = vh.T.copy()  # columns b_k, so that m = u diag(s) right^T
    for k in range(u.shape[1]):
        col = u[:, k]
        idx = int(np.argmax(np.abs(col) > 1e-12))
        z = col[idx]
        if abs(z) > 1e-12:
            ph = z / abs(z)
            u[:, k] = col / ph
            right[:, k] = right[:, k] * ph
    sf = SchmidtForm(s, u, right)
    err = float(np.max(np.abs(sf.reconstruct() - m)))
    if not err <= 1e-12:
        raise AssertionError(f"reconstruction error {err}")
    return sf


def _phase_unitary(basis: np.ndarray, phases: np.ndarray, dim: int) -> np.ndarray:
    """sum_k e^{i phase_k} |v_k><v_k|, identity on the orthocomplement."""
    u = np.eye(dim, dtype=complex)
    for k in range(basis.shape[1]):
        vk = basis[:, k:k + 1]
        u = u + (np.exp(1j * phases[k]) - 1.0) * (vk @ vk.conj().T)
    return u


def system_unitary(sf: SchmidtForm, phases, d1: int) -> np.ndarray:
    """U_p = sum e^{i phi_k} |a_k><a_k| extended by identity."""
    return _phase_unitary(sf.left, np.asarray(phases, dtype=float), d1)


def counter_unitary(sf: SchmidtForm, u_p: np.ndarray, windings=None) -> np.ndarray:
    """U_n = sum e^{-i(phi_k + 2 pi l_k)} |b_k><b_k| undoing a given U_p.

    The supplied U_p must be diagonal in the computed Schmidt basis, to
    within 1e-10, with unimodular entries; the phases are read off its
    diagonal there.  Winding numbers l_k shift each phase by full turns and
    cannot change the counter-unitary.
    """
    r = sf.left.shape[1]
    d2 = sf.right.shape[0]
    inner = sf.left.conj().T @ u_p @ sf.left
    off = float(np.max(np.abs(inner - np.diag(np.diag(inner)))))
    if off > 1e-10:
        raise NotSchmidtDiagonal(f"off-diagonal weight {off}")
    diag = np.diag(inner)
    if float(np.max(np.abs(np.abs(diag) - 1.0))) > 1e-10:
        raise NotSchmidtDiagonal("diagonal entries are not unimodular")
    phis = np.angle(diag)
    if windings is None:
        windings = np.zeros(r, dtype=int)
    counter_phases = -(phis + 2.0 * pi * np.asarray(windings, dtype=float))
    return _phase_unitary(sf.right, counter_phases, d2)


def restores(state: PureState, u_p: np.ndarray, u_n: np.ndarray) -> float:
    """max-norm defect of (U_p (x) U_n)|state> = |state>."""
    v = np.kron(u_p, u_n) @ state.amplitudes
    return float(np.max(np.abs(v - state.amplitudes)))


def verify_reflexivity(
    state: PureState, phases, windings=None, tol: float = 1e-12
) -> bool:
    sf = schmidt(state)
    u_p = system_unitary(sf, phases, state.dims[0])
    u_n = counter_unitary(sf, u_p, windings)
    return restores(state, u_p, u_n) <= tol


def verify_symmetry(state: PureState, v_phases, tol: float = 1e-12) -> bool:
    """Symmetric equivalence via U_p = V_p^{-1}, V_n = U_n(V_p^{-1})^{-1}."""
    sf = schmidt(state)
    v_p = system_unitary(sf, v_phases, state.dims[0])
    u_n = counter_unitary(sf, v_p.conj().T)  # U_n(V_p^{-1})
    return restores(state, v_p, u_n.conj().T) <= tol


def verify_transitivity(
    ab: PureState,
    w_phases,
    xi: np.ndarray,
    eta: np.ndarray,
    dim_cap: int = 2**8,
    tol: float = 1e-12,
) -> bool:
    """Literal assembly of the chained-equivalence construction.

    Both input equivalences are the constructive (reflexive-family)
    instances on the same pair, so c = e = a and d = f = b.  Given W_p,
    the choice U_p = V_p = W_p, W_n = U_n(W_p) plus the ancilla
    chi = d (x) c (x) xi (x) eta with
    W_chi = V_n(W_p) (x) W_p (x) U_xi (x) V_eta
    must restore a (x) f (x) chi exactly; U_xi and V_eta are arbitrary
    unitaries fixing their ancillas (sampled as such).
    """
    d1, d2 = ab.dims
    total = d1 * d2 * d2 * d1 * len(xi) * len(eta)
    if total > dim_cap:
        raise DimensionBlowup(f"total dimension {total} exceeds cap {dim_cap}")
    sf = schmidt(ab)
    w_p = system_unitary(sf, w_phases, d1)
    # W_n = U_n(W_p); the second equivalence uses the same family, so its
    # V_n is the same matrix
    u_n = v_n = counter_unitary(sf, w_p)

    a_vec = ab.amplitudes  # |a> (x) |b| as one bipartite vector
    xi = xi / np.linalg.norm(xi)
    eta = eta / np.linalg.norm(eta)
    u_xi = _fixing_unitary(xi)
    v_eta = _fixing_unitary(eta)

    # |a> (x) |f> (x) |chi>, chi = |d> (x) |c> (x) |xi> (x) |eta>; here the
    # pair (a,b) enters as its joint vector, (d,c) likewise with factors
    # swapped, so the layout is (a b) (x) (b a as d c) (x) xi (x) eta
    swap = ab.matrix().T.reshape(-1)  # |d> (x) |c> pattern for the same pair
    chi = np.kron(np.kron(swap, xi), eta)
    full = np.kron(a_vec, chi)

    w_chi = np.kron(np.kron(np.kron(v_n, w_p), u_xi), v_eta)
    big = np.kron(np.kron(w_p, u_n), w_chi)
    return float(np.max(np.abs(big @ full - full))) <= tol


def _fixing_unitary(vec: np.ndarray) -> np.ndarray:
    """A unitary with vec as a fixed point: phase shift on the complement."""
    d = len(vec)
    v = (vec / np.linalg.norm(vec)).reshape(d, 1)
    proj = v @ v.conj().T
    return proj + np.exp(0.7j) * (np.eye(d) - proj)


def winding_independence(state: PureState, phases) -> bool:
    """All winding choices give the same counter-unitary, to within 1e-12:
    e^{-i(phi + 2 pi l)} rounds differently from e^{-i phi}, so the
    comparison cannot be exact."""
    sf = schmidt(state)
    u_p = system_unitary(sf, phases, state.dims[0])
    base = counter_unitary(sf, u_p, None)
    for l in ([1] * sf.left.shape[1], [0, 2] + [1] * (sf.left.shape[1] - 2)):
        l = l[: sf.left.shape[1]]
        other = counter_unitary(sf, u_p, l)
        if float(np.max(np.abs(base - other))) > 1e-12:
            return False
    return True
