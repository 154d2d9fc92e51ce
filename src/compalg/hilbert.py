"""Finite-dimensional operator realization and flat Kähler structures.

The two products become (i/hbar) times the commutator and the symmetrized
product; the associative product with the minus sign is literal matrix
multiplication.  The operator norm is the spectral radius of T^dagger T,
computed with a self-contained eigensolver: Householder reduction of the
complex Hermitian matrix to a real symmetric tridiagonal one, then
implicit-shift QL on the eigenvalues only.

Random Hermitian matrices are the `random.gauss` stream of a seeded
`random.Random`, drawn in one pass by `_gauss_draws`: the same floats, and
the same generator state after them, as one `gauss` call per draw.
"""

from __future__ import annotations

import math
import operator
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
# Hermitian eigensolver: Householder tridiagonalization, implicit QL
# ---------------------------------------------------------------------------

_QL_ITERATIONS = 30  # QL steps allowed per eigenvalue, LAPACK's MAXIT


def _tridiagonalize(a: list) -> tuple[list, list]:
    """Householder reduction of a full Hermitian matrix of Python scalars.

    Golub & Van Loan algorithm 8.3.1 in its Hermitian form.  The reflector
    P = I - beta v v* with v = x - alpha e_1, alpha = -e^{i arg x_0} |x|,
    sends the column x below the diagonal to alpha e_1; the phase keeps
    x_0 - alpha free of cancellation and makes v* x real, so P x = alpha e_1.
    The trailing block takes the rank-2 update A <- A - v w* - w v* with
    p = beta A v and w = p - (beta v* p / 2) v.  A diagonal unitary
    similarity turns each complex off-diagonal alpha into |alpha| = |x|
    without moving the spectrum, so the result is the real diagonal d and
    the real off-diagonal e (what zhetrd hands to dsterf).  The matrix is
    nested lists of Python scalars: at n <= 16 numpy call overhead costs
    more than the arithmetic.
    """
    d, e = [], []
    while len(a) > 1:
        d.append(a[0][0].real)
        v = [row[0] for row in a[1:]]  # x, turned into v in place
        a = [row[1:] for row in a[1:]]
        x0 = v[0]
        mag = abs(x0)
        if not any(v[1:]):
            e.append(mag)
            continue
        norm = math.hypot(*map(abs, v))
        v[0] = (x0 / mag if mag else 1.0) * (mag + norm)
        beta = 1.0 / (norm * (norm + mag))  # 2 / v*v
        vc = [z.conjugate() for z in v]
        p = [beta * sum(map(operator.mul, row, v)) for row in a]
        half = 0.5 * beta * sum(map(operator.mul, vc, p)).real
        w = [pi - half * vi for pi, vi in zip(p, v)]
        wc = [z.conjugate() for z in w]
        a = [[b - vi * wcj - wi * vcj for b, vcj, wcj in zip(row, vc, wc)]
             for row, vi, wi in zip(a, v, w)]
        e.append(norm)
    d.append(a[0][0].real)
    return d, e


def _tridiagonal_ql(d: list, e: list) -> list:
    """Eigenvalues, ascending, of the real symmetric tridiagonal matrix (d, e).

    Implicit QL with the Wilkinson shift (Golub & Van Loan 8.3.5, in the QL
    form of tqli): plane rotations chase the bulge from the bottom of the
    unreduced block [k, m] up to k.  An off-diagonal is negligible when
    adding it to its neighbouring diagonal magnitudes changes nothing.
    """
    n = len(d)
    e = e + [0.0]
    for k in range(n):
        for step in range(_QL_ITERATIONS + 1):
            m = k
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == k:
                break
            if step == _QL_ITERATIONS:
                raise EigenFailure("QL iterations did not converge")
            g = (d[k + 1] - d[k]) / (2.0 * e[k])
            g = d[m] - d[k] + e[k] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, k - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: e[i + 1] is zero, restart on the split block
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[k] -= p
                e[k] = g
                e[m] = 0.0
    return sorted(d)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian matrix.

    Only the upper triangle and the real part of the diagonal are read; a
    non-finite entry among them raises EigenFailure.  The matrix is scaled
    by the power of two that brings its largest magnitude into [1/2, 1), so
    the squares in the reduction neither overflow nor underflow; the
    scaling is exact and the eigenvalues are scaled back.
    """
    _check_square(a)
    upper = np.triu(a, 1)
    full = np.asarray(upper + upper.conj().T + np.diag(a.diagonal().real), dtype=complex)
    peak = float(np.max(np.abs(full)))
    if not math.isfinite(peak):
        raise EigenFailure("matrix has a non-finite entry")
    exp = math.frexp(peak)[1]
    unit = np.ldexp(full.view(float), -exp).view(complex)
    return np.ldexp(_tridiagonal_ql(*_tridiagonalize(unit.tolist())), exp)


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

def _gauss_draws(rng: random.Random, n: int, sigma: float) -> list:
    """`[rng.gauss(0, sigma) for _ in range(n)]` in one pass, bit for bit.

    CPython's `gauss` is the Box-Muller transform (Ann. Math. Stat. 29,
    1958): two `random()` calls give the pair cos(x)r, sin(x)r, one is
    returned and the other kept in `gauss_next` for the next call.  This
    loop takes a pending `gauss_next` first, then each pair with libm's
    functions in `gauss`'s order, `0 +` included (it turns -0.0 into 0.0);
    for an odd count it keeps the last pair's sine in `gauss_next` instead
    of returning it, so `rng` ends in the state the calls would leave.  It
    saves a method call per draw.
    """
    out = []
    if n and rng.gauss_next is not None:
        out.append(0 + rng.gauss_next * sigma)
        rng.gauss_next = None
        n -= 1
    random = rng.random
    for _ in range((n + 1) // 2):
        x2pi = random() * math.tau
        g2rad = math.sqrt(-2.0 * math.log(1.0 - random()))
        z = math.sin(x2pi) * g2rad
        out.append(0 + math.cos(x2pi) * g2rad * sigma)
        out.append(0 + z * sigma)
    if n % 2:
        out.pop()
        rng.gauss_next = z
    return out


def sample_hermitian(rng: random.Random, dim: int) -> np.ndarray:
    """(M + M*)/2 for M with N(0, 2) real and imaginary parts, drawn row by
    row, real part first: the `rng.gauss(0, 2.0)` stream, taken in one
    `_gauss_draws` pass and viewed as complex pairs."""
    flat = _gauss_draws(rng, 2 * dim * dim, 2.0)
    m = np.array(flat).view(complex).reshape(dim, dim)
    return 0.5 * (m + m.conj().T)


def matrix_carrier(dim: int, hbar: Fraction = Fraction(2)) -> Carrier:
    hbar = Fraction(hbar)
    hf = float(hbar)
    keys = [(i, j) for i in range(dim) for j in range(dim)]
    eye = np.eye(dim, dtype=complex)

    def decompose(x):
        return {k: v for k, v in zip(keys, x.ravel().tolist()) if v}

    return Carrier(
        name=f"hilbert-{dim}x{dim}-hbar{hbar}",
        jsquared=-1,
        hbar=hbar,
        unit=eye,
        add=lambda x, y: x + y,
        scale=lambda x, s: float(s) * x,
        sigma=op_sigma,
        alpha=lambda x, y: op_alpha(x, y, hf),
        decompose=decompose,
        pair=lambda x: (1, decompose(x)),
        basis=lambda k: np.outer(eye[k[0]], eye[k[1]]),
        residual=lambda x: max(map(abs, x.ravel().tolist()), default=0.0),
        sample=lambda rng: sample_hermitian(rng, dim),
        tol=1e-12,
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
    if not np.array_equal(Omega @ J, g):
        raise AssertionError("Omega J != g")
    if not np.array_equal(J.T @ g, Omega):
        raise AssertionError("J^T g != Omega")
    if not np.array_equal(J @ J, -np.eye(2 * n, dtype=np.int64)):
        raise AssertionError("J^2 != -1")
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

def sample_compatible_symplectic(rng: random.Random, n: int) -> np.ndarray:
    """exp(K) with K in the symplectic algebra and commuting with J.

    K is the real embedding of an anti-Hermitian n x n complex matrix, so
    exp(K) is in the unitary subgroup U(n) = Sp(2n) ∩ O(2n).
    """
    h = np.array(_gauss_draws(rng, 2 * n * n, 0.5)).view(complex).reshape(n, n)
    h = 0.5 * (h - h.conj().T)  # anti-Hermitian
    k = np.block([[h.real, -h.imag], [h.imag, h.real]])
    return _expm(k)


def _expm(k: np.ndarray) -> np.ndarray:
    # scaling and squaring with a truncated series; K is small and well scaled
    norm = float(np.max(np.abs(k)))
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 2)
    a = k / (2**s)
    out = np.eye(k.shape[0])
    term = np.eye(k.shape[0])
    for i in range(1, 40):
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
