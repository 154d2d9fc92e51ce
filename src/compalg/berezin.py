"""Coherent-state (Berezin) quantization on the plane by quadrature.

The coherent state at (q, p) has the closed-form oscillator amplitudes
<n|z> = e^{-|a|^2/2} a^n / sqrt(n!) with a = (q + ip) / sqrt(2 hbar)
(Glauber 1963), and the quantization integral of f |z><z| is a sum over a
Gauss-Legendre product grid in (q, p).  The sum runs a fixed block of q-rows
at a time: the block's amplitudes follow V[n] = V[n-1] a / sqrt(n) from
V[0] = e^{-|a|^2/2}, so every entry has modulus at most 1 for any N, and
each block adds one matrix product to the N x N output.  No coefficient
tensor of the whole grid is built or kept.  The tests hold the amplitudes
and the quantizations against a Gauss-Hermite oracle.  Only the first N/2
levels of the resulting matrices are trusted; truncation error
concentrates in the top half.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import DegreeExceedsGrid
from .hilbert import hermitian_eigenvalues
from .phasepoly import PhasePoly


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre product rule over [-R, R]^2 in (q, p)."""

    exact_degree: int
    qs: np.ndarray
    ps: np.ndarray
    weights: np.ndarray  # outer product, shape (len(qs), len(ps))


def build_grid(hbar: float, N: int, max_poly_degree: int) -> QuadratureGrid:
    """Grid wide enough for the N-level coherent family and degree cap.

    Radial cutoff R = 1.5 sqrt(2 hbar (N + degree)); the integrand decays
    like the level-N coherent envelope, so this keeps the tail below the
    stated tolerances.
    """
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    R = 1.5 * sqrt(2.0 * hbar * (N + max_poly_degree))
    t, w = np.polynomial.legendre.leggauss(6 * N + 20)
    xs = R * t
    ws = R * w
    return QuadratureGrid(max_poly_degree, xs, xs.copy(), np.outer(ws, ws))


# q-rows of the grid per block of the quadrature sum
_BLOCK_ROWS = 8


def berezin_quantize(f: PhasePoly, hbar: float, N: int, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature form of the rank-one integral  int dp dq / 2 pi hbar  f |z><z|.

    Entry (m, n) is sum_grid kern V_m conj(V_n), with kern the weights times
    f / 2 pi hbar (f taken on the grid term by term) and V the closed-form
    amplitudes; each block of _BLOCK_ROWS q-rows adds (V kern) V^H, so a
    quantization holds one block's amplitudes at a time.  The output is
    Hermitian for real f up to quadrature noise.  Coefficients must have a
    complex value: a split-complex or dual coefficient raises ValueError.
    """
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    if f.dof != 1:
        raise ValueError("quantization is implemented for one degree of freedom")
    if f.degree > grid.exact_degree:
        raise DegreeExceedsGrid(f"degree {f.degree} > grid cap {grid.exact_degree}")
    if N < f.degree + 4:
        raise ValueError("N must be at least deg f + 4")
    # f on the grid, with q along axis 0
    kern = np.zeros((len(grid.qs), len(grid.ps)), dtype=complex)
    for (a, b), c in f.terms.items():
        kern += complex(c) * np.outer(grid.qs**a, grid.ps**b)
    kern *= grid.weights / (2.0 * pi * hbar)
    out = np.zeros((N, N), dtype=complex)
    # two block buffers, reused by every block: fresh ones per block cost page faults
    amps, kern_amps = np.empty((2, N, _BLOCK_ROWS * len(grid.ps)), dtype=complex)
    for start in range(0, len(grid.qs), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        a = ((grid.qs[rows, np.newaxis] + 1j * grid.ps) / sqrt(2.0 * hbar)).ravel()
        v, vk = amps[:, : a.size], kern_amps[:, : a.size]
        v[0] = np.exp(-0.5 * (a.real**2 + a.imag**2))
        for n in range(1, N):
            np.multiply(v[n - 1], a, out=v[n])
            v[n] /= sqrt(n)
        np.multiply(v, kern[rows].ravel(), out=vk)
        out += vk @ np.conjugate(v, out=v).T
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
