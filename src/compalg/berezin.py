"""Coherent-state (Berezin) quantization on the plane by quadrature.

Over a Gauss-Legendre product grid in (q, p) the coherent states' expansions
in a truncated oscillator basis form one coefficient tensor C[n, iq, ip],
built level by level from a single Gauss-Hermite rule and a single
q-independent phase table, and the quantization integral is one contraction
of that tensor against f on the grid.  The tests check C at every grid
point against the closed-form Poisson weights.  The grid keeps conj(C)
alone per (hbar, N), and the contraction runs a few output rows at a time,
so memory peaks at one tensor plus one block of rows.  Only the first N/2
levels of the resulting matrices are trusted; truncation error
concentrates in the top half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from .errors import DegreeExceedsGrid
from .hilbert import hermitian_eigenvalues
from .phasepoly import PhasePoly


def _hermite_levels(x: np.ndarray, n_levels: int, hbar: float):
    """Oscillator eigenfunctions with the Gaussian envelope stripped, one level
    at a time.

    Level n is psi_n(x) * exp(+x^2 / 2 hbar) over an array x of any shape,
    from the standard three-term recurrence, so only two levels are held at
    once; the envelope cancels against quadrature weights downstream.
    """
    y = sqrt(2.0) * (x / sqrt(hbar))
    # level -1 is 0, so the step to level 1 is exactly y times level 0
    prev, cur = 0.0, np.full(x.shape, (pi * hbar) ** -0.25)
    for n in range(1, n_levels):
        yield cur
        prev, cur = cur, (y * cur - sqrt(n - 1) * prev) / sqrt(n)
    yield cur


def _coeff_tensor(qs: np.ndarray, ps: np.ndarray, hbar: float, N: int) -> np.ndarray:
    """C[n, iq, ip] = <n|state(ps[ip], qs[iq])> from one Gauss-Hermite rule of
    4N + 40 nodes.

    The state is (pi hbar)^(-1/4) e^{-ipq/2h} e^{ipx/h} e^{-(x-q)^2/2h}.
    Against psi_n's envelope the Gaussians complete to one square:
    -x^2/2h - (x-q)^2/2h = -(x - q/2)^2/h - q^2/4h, so x = q/2 + t sqrt(h/2)
    and the hermegauss weights carry e^{-t^2/2}.  The q/2 part of the plane
    wave cancels e^{-ipq/2h} exactly, which leaves the phase table
    E = e^{ipt sqrt(h/2)/h} independent of q: level n of the tensor is the
    one matrix product (psi_n w) E^T, scaled by amp(q), written into C
    level by level, so the build holds C and one level's temporaries.
    """
    t, w = np.polynomial.hermite_e.hermegauss(4 * N + 40)
    s = sqrt(hbar / 2.0)
    E = np.exp(1j * (s / hbar) * np.outer(ps, t))  # (np, nodes)
    amp = (pi * hbar) ** -0.25 * s * np.exp(-qs * qs / (4.0 * hbar))
    C = np.empty((N, len(qs), len(ps)), dtype=complex)
    levels = _hermite_levels(qs[:, np.newaxis] / 2.0 + t * s, N, hbar)  # each (nq, nodes)
    for level, psi in zip(C, levels):
        np.matmul(psi * w, E.T, out=level)
        level *= amp[:, np.newaxis]
    return C


# ---------------------------------------------------------------------------
# Quantization by product quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre product rule over [-R, R]^2 in (q, p)."""

    exact_degree: int
    qs: np.ndarray
    ps: np.ndarray
    weights: np.ndarray  # outer product, shape (len(qs), len(ps))
    # (hbar, N) -> conj(C), the one tensor berezin_quantize contracts against,
    # filled in place by the first quantization with that key and shared by
    # every later one
    plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def build_grid(hbar: float, N: int, max_poly_degree: int) -> QuadratureGrid:
    """Grid wide enough for the N-level coherent family and degree cap.

    Radial cutoff R = 1.5 sqrt(2 hbar (N + degree)); the integrand decays
    like the level-N coherent envelope, so this keeps the tail below the
    stated tolerances.
    """
    R = 1.5 * sqrt(2.0 * hbar * (N + max_poly_degree))
    t, w = np.polynomial.legendre.leggauss(6 * N + 20)
    xs = R * t
    ws = R * w
    return QuadratureGrid(max_poly_degree, xs, xs.copy(), np.outer(ws, ws))


# Output rows per gemm of the contraction.  Every gemm keeps the whole grid
# as its inner dimension, so the sums run in the order of one N-row gemm.
_LEVELS = 4


def berezin_quantize(f: PhasePoly, hbar: float, N: int, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature form of the rank-one integral  int dp dq / 2 pi hbar  f |s><s|.

    One coefficient tensor C[n, iq, ip] holds the coherent states of the
    whole grid (one Gauss-Hermite rule, one phase table), and f is taken on
    the grid term by term; the N x N output is Hermitian for real f up to
    quadrature noise.  The plan of a key (hbar, N) is conj(C) alone, built
    once per key in ``grid.plans`` and conjugated in place.  Entry (m, n)
    is sum_ij kern_ij C_mij conj(C)_nij, taken _LEVELS output rows at a time:
    the block kern C = conj(conj(kern) conj(C)) (sign flips only) times
    conj(C) flattened over the grid, so a quantization holds the plan and
    one block.  Coefficients must have a complex value: a split-complex or
    dual coefficient raises ValueError.
    """
    if f.dof != 1:
        raise ValueError("quantization is implemented for one degree of freedom")
    if f.degree > grid.exact_degree:
        raise DegreeExceedsGrid(f"degree {f.degree} > grid cap {grid.exact_degree}")
    if N < f.degree + 4:
        raise ValueError("N must be at least deg f + 4")
    # f on the grid, with q along axis 0
    fv = np.zeros((len(grid.qs), len(grid.ps)), dtype=complex)
    for (a, b), c in f.terms.items():
        fv += complex(c) * np.outer(grid.qs**a, grid.ps**b)
    conj_kern = np.conjugate(grid.weights * fv / (2.0 * pi * hbar))
    conj_c = grid.plans.get((hbar, N))
    if conj_c is None:
        conj_c = _coeff_tensor(grid.qs, grid.ps, hbar, N)
        grid.plans[hbar, N] = np.conjugate(conj_c, out=conj_c)
    flat = conj_c.reshape(N, -1)
    out = np.empty((N, N), dtype=complex)
    block = np.empty((min(N, _LEVELS + 1), *conj_kern.shape), dtype=complex)
    # the last block takes 2 to _LEVELS + 1 rows: numpy runs a 1-row product
    # as a gemv, whose sums run in another order
    stops = [*range(0, N - 1, _LEVELS), N]
    for m, stop in zip(stops, stops[1:]):
        kc = block[: stop - m]
        np.multiply(conj_kern, conj_c[m:stop], out=kc)
        np.conjugate(kc, out=kc)
        np.matmul(kc.reshape(stop - m, -1), flat.T, out=out[m:stop])
    return out


def trusted(m: np.ndarray) -> np.ndarray:
    """Restriction of an N x N matrix to the first N/2 levels."""
    k = m.shape[0] // 2
    return m[:k, :k]


def positivity_preservation(qf: np.ndarray, tol: float = 1e-9) -> bool:
    """Min eigenvalue of the trusted block stays above -tol.

    Callers supply a sum-of-squares certificate for f out of band; this
    checks the operator side only.
    """
    block = trusted(qf)
    h = 0.5 * (block + block.conj().T)
    return float(np.min(hermitian_eigenvalues(h))) >= -tol


def _ladder(hbar: float, N: int, up: complex, down: complex) -> np.ndarray:
    """<n|.|n+1> = up sqrt(h (n+1)/2) and <n+1|.|n> = down sqrt(h (n+1)/2).

    up and down are passed as they are, not one as the other's conjugate:
    conj(-1j) * v is (-0.0 + v j), whose real zero has the other sign.
    """
    m = np.zeros((N, N), dtype=complex)
    for n in range(N - 1):
        v = sqrt(hbar * (n + 1) / 2.0)
        m[n, n + 1] = up * v
        m[n + 1, n] = down * v
    return m


def ladder_position_oracle(hbar: float, N: int) -> np.ndarray:
    """Position operator in the oscillator basis: <n|q|n+1> = sqrt(h (n+1)/2)."""
    return _ladder(hbar, N, 1, 1)


def ladder_momentum_oracle(hbar: float, N: int) -> np.ndarray:
    """Momentum operator: <n|p|n+1> = -i sqrt(h (n+1)/2), Hermitian."""
    return _ladder(hbar, N, -1j, 1j)
