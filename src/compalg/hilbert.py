"""Finite-dimensional operator realization and flat Kähler structures.

The two products become (i/hbar) times the commutator and the symmetrized
product; the associative product with the minus sign is literal matrix
multiplication.  The operator norm is the spectral radius of T^dagger T,
computed with a self-contained cyclic Jacobi eigensolver (complex
Hermitian matrices are embedded as real symmetric ones).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Carrier
from .errors import DimMismatch, EigenFailure, NonSymplecticW
from .phasepoly import PhasePoly


def _check_square(a: np.ndarray):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected square matrix, got shape {a.shape}")


def _check_same(a: np.ndarray, b: np.ndarray):
    _check_square(a)
    if a.shape != b.shape:
        raise DimMismatch(f"{a.shape} vs {b.shape}")


def op_alpha(a: np.ndarray, b: np.ndarray, hbar: float = 2.0) -> np.ndarray:
    """(AB - BA)/(i hbar); maps Hermitian pairs to Hermitian output.

    The skew product is (J/hbar)(AB - BA) up to the J -> -J involution;
    the representative J = -i is fixed here so that quantized canonical
    pairs reproduce the classical bracket with positive sign.
    """
    _check_same(a, b)
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return (-1j / float(hbar)) * (a @ b - b @ a)


def op_sigma(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(AB + BA)/2."""
    _check_same(a, b)
    return 0.5 * (a @ b + b @ a)


# ---------------------------------------------------------------------------
# Hermitian eigensolver: cyclic Jacobi on the real symmetric embedding
# ---------------------------------------------------------------------------

def _real_embedding(a: np.ndarray) -> np.ndarray:
    x, y = a.real, a.imag
    return np.block([[x, -y], [y, x]])


def _jacobi_symmetric(s: np.ndarray, max_sweeps: int = 60, tol: float = 1e-14):
    """Cyclic Jacobi sweeps on a real symmetric matrix; returns (w, V)."""
    a = s.copy()
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale:
                    continue
                off = max(off, abs(apq))
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                sn = t * c
                rp, rq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * rp - sn * rq
                a[:, q] = sn * rp + c * rq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sn * rq
                a[q, :] = sn * rp + c * rq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
        if off <= tol * scale:
            w = np.diag(a).copy()
            order = np.argsort(w)
            return w[order], v[:, order]
    raise EigenFailure("Jacobi sweeps did not converge")


def hermitian_eig(a: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Residual contract: ||A v - w v|| <= 1e-11 * scale per column.
    """
    _check_square(a)
    n = a.shape[0]
    w2, v2 = _jacobi_symmetric(_real_embedding(a))
    # each eigenvalue appears twice; complexify and keep one vector per copy
    vecs, vals = [], []
    for k in range(2 * n):
        z = v2[:n, k] + 1j * v2[n:, k]
        for u in vecs:
            z = z - (u.conj() @ z) * u
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            vecs.append(z / nz)
            vals.append(w2[k])
        if len(vecs) == n:
            break
    if len(vecs) < n:
        raise EigenFailure("could not extract a full complex eigenbasis")
    return np.array(vals), np.array(vecs).T


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    _check_square(a)
    w2, _ = _jacobi_symmetric(_real_embedding(a))
    return w2[::2].copy() if _pairs_ok(w2) else np.sort(w2)[::2].copy()


def _pairs_ok(w2: np.ndarray) -> bool:
    w2 = np.sort(w2)
    return bool(np.all(np.abs(w2[::2] - w2[1::2]) < 1e-9 * max(1.0, np.max(np.abs(w2)))))


def spectral_norm(t: np.ndarray) -> float:
    """sqrt of the spectral radius of T^dagger T."""
    _check_square(t)
    w = hermitian_eigenvalues(t.conj().T @ t)
    return float(np.sqrt(max(0.0, float(np.max(w)))))


def cstar_check(t: np.ndarray, rtol: float = 1e-10) -> bool:
    """||T^dagger T|| = ||T||^2 to relative tolerance."""
    n1 = spectral_norm(t.conj().T @ t)
    n2 = spectral_norm(t) ** 2
    return abs(n1 - n2) <= rtol * max(1.0, abs(n2))


# ---------------------------------------------------------------------------
# Carrier over Hermitian matrices
# ---------------------------------------------------------------------------

def sample_hermitian(rng: random.Random, dim: int, scale: float = 2.0) -> np.ndarray:
    m = np.array(
        [[complex(rng.gauss(0, scale), rng.gauss(0, scale)) for _ in range(dim)]
         for _ in range(dim)]
    )
    return 0.5 * (m + m.conj().T)


def matrix_carrier(dim: int, hbar: Fraction = Fraction(2), tol: float = 1e-12) -> Carrier:
    hbar = Fraction(hbar)
    hf = float(hbar)
    return Carrier(
        name=f"hilbert-{dim}x{dim}-hbar{hbar}",
        jsquared=-1,
        hbar=hbar,
        unit=np.eye(dim, dtype=complex),
        add=lambda x, y: x + y,
        scale=lambda x, s: float(s) * x,
        sigma=op_sigma,
        alpha=lambda x, y: op_alpha(x, y, hf),
        decompose=lambda x: {
            (i, j): x[i, j] for i in range(dim) for j in range(dim) if x[i, j] != 0
        },
        sample=lambda rng: sample_hermitian(rng, dim),
        tol=tol,
        jscale=lambda x, r: (-1j * float(r)) * x,
    )


# ---------------------------------------------------------------------------
# Flat Kähler structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KahlerTriple:
    """Compatible (J, Omega, g) block matrices on R^2n, integer entries."""

    n: int
    J: np.ndarray
    Omega: np.ndarray
    g: np.ndarray


def build_kahler(n: int) -> KahlerTriple:
    """J = [[0,-1],[1,0]], Omega = [[0,1],[-1,0]], g = identity (blocks of size n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one = np.eye(n, dtype=np.int64)
    zero = np.zeros((n, n), dtype=np.int64)
    J = np.block([[zero, -one], [one, zero]])
    Omega = np.block([[zero, one], [-one, zero]])
    g = np.eye(2 * n, dtype=np.int64)
    assert np.array_equal(Omega @ J, g)
    assert np.array_equal(J.T @ g, Omega)
    assert np.array_equal(J @ J, -np.eye(2 * n, dtype=np.int64))
    return KahlerTriple(n, J, Omega, g)


def hermitean_property_check(triple: KahlerTriple, x: np.ndarray, y: np.ndarray) -> bool:
    """g(JX, JY) = g(X, Y), exact on integer vectors."""
    if x.shape != (2 * triple.n,) or y.shape != (2 * triple.n,):
        raise DimMismatch("vectors must have length 2n")
    jx, jy = triple.J @ x, triple.J @ y
    return (jx @ triple.g @ jy) == (x @ triple.g @ y)


def inner_product(triple: KahlerTriple, x: np.ndarray, y: np.ndarray) -> complex:
    """<X, Y> = X^T g Y + i X^T Omega Y."""
    if x.shape != (2 * triple.n,) or y.shape != (2 * triple.n,):
        raise DimMismatch("vectors must have length 2n")
    return complex(x @ triple.g @ y) + 1j * complex(x @ triple.Omega @ y)


# ---------------------------------------------------------------------------
# Nijenhuis tensor for the constant J
# ---------------------------------------------------------------------------

VectorField = tuple  # components: 2n PhasePoly entries over Fraction


def lie_bracket_fields(r: VectorField, s: VectorField) -> VectorField:
    """[R, S]^i = sum_j R^j d_j S^i - S^j d_j R^i."""
    m = len(r)
    out = []
    for i in range(m):
        acc = PhasePoly(r[0].dof)
        for j in range(m):
            acc = acc + r[j] * s[i].deriv(j) - s[j] * r[i].deriv(j)
        out.append(acc)
    return tuple(out)


def apply_constant_matrix(mat: np.ndarray, f: VectorField) -> VectorField:
    m = len(f)
    out = []
    for i in range(m):
        acc = PhasePoly(f[0].dof)
        for j in range(m):
            c = int(mat[i, j])
            if c:
                acc = acc + f[j].scale(Fraction(c))
        out.append(acc)
    return tuple(out)


def nijenhuis_constant_J(triple: KahlerTriple, r: VectorField, s: VectorField) -> VectorField:
    """N(R,S) = [R,S] + J[JR,S] + J[R,JS] - [JR,JS]; identically zero for constant J."""
    J = triple.J
    jr, js = apply_constant_matrix(J, r), apply_constant_matrix(J, s)
    t1 = lie_bracket_fields(r, s)
    t2 = apply_constant_matrix(J, lie_bracket_fields(jr, s))
    t3 = apply_constant_matrix(J, lie_bracket_fields(r, js))
    t4 = lie_bracket_fields(jr, js)
    return tuple(t1[i] + t2[i] + t3[i] - t4[i] for i in range(len(r)))


# ---------------------------------------------------------------------------
# Normalization preservation under J-commuting symplectic maps
# ---------------------------------------------------------------------------

def sample_compatible_symplectic(rng: random.Random, n: int, scale: float = 0.5) -> np.ndarray:
    """exp(K) with K in the symplectic algebra and commuting with J.

    K is the real embedding of an anti-Hermitian n x n complex matrix, so
    exp(K) is in the unitary subgroup U(n) = Sp(2n) ∩ O(2n).
    """
    h = np.array(
        [[complex(rng.gauss(0, scale), rng.gauss(0, scale)) for _ in range(n)]
         for _ in range(n)]
    )
    h = 0.5 * (h - h.conj().T)  # anti-Hermitian
    k = np.block([[h.real, -h.imag], [h.imag, h.real]])
    return _expm(k)


def _expm(k: np.ndarray, terms: int = 40) -> np.ndarray:
    # scaling and squaring with a truncated series; K is small and well scaled
    norm = float(np.max(np.abs(k)))
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 2)
    a = k / (2**s)
    out = np.eye(k.shape[0])
    term = np.eye(k.shape[0])
    for i in range(1, terms):
        term = term @ a / i
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def normalization_constraint_check(
    triple: KahlerTriple, x: np.ndarray, w: np.ndarray, tol: float = 1e-10
) -> bool:
    """(WX)^T g (WX) stays 1 for normalized X and compatible symplectic W."""
    omega = triple.Omega.astype(float)
    if float(np.max(np.abs(w.T @ omega @ w - omega))) > 1e-8:
        raise NonSymplecticW("sampled W fails W^T Omega W = Omega")
    if float(np.max(np.abs(w @ triple.J - triple.J @ w))) > 1e-8:
        raise NonSymplecticW("sampled W does not commute with J")
    g = triple.g.astype(float)
    before = float(x @ g @ x)
    if abs(before - 1.0) > tol:
        raise ValueError("X must be normalized")
    wx = w @ x
    return abs(float(wx @ g @ wx) - 1.0) <= tol
