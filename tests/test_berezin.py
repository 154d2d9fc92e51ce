import dataclasses
import tracemalloc
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest

from compalg.berezin import (
    _BLOCK_ROWS,
    QuadratureGrid,
    berezin_quantize,
    build_grid,
    ladder_momentum_oracle,
    ladder_position_oracle,
    positivity_preservation,
    trusted,
)
from compalg.errors import DegreeExceedsGrid
from compalg.hilbert import cstar_check, op_alpha
from compalg.phasepoly import PhasePoly
from compalg.scalars import EPS_DUAL, I_COMPLEX, J_SPLIT, ComplexRational

Q = PhasePoly.q()
P = PhasePoly.p()
ONE = PhasePoly.const(1, 1)


# -- the Gauss-Hermite coefficient tensor, kept as the oracle for the
# closed-form amplitudes that berezin_quantize sums block by block ----------

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


def poisson_weight_oracle(p, q, hbar, N):
    """Closed-form coefficients e^{-|a|^2/2} a^n / sqrt(n!), a = (q+ip)/sqrt(2h)."""
    a = (q + 1j * p) / sqrt(2.0 * hbar)
    out = np.empty(N, dtype=complex)
    out[0] = np.exp(-abs(a) ** 2 / 2.0)
    for n in range(1, N):
        out[n] = out[n - 1] * a / sqrt(n)
    return out


def _coherent_coeffs(p, q, hbar, N):
    """<n|state(p, q)>: the 1 x 1 coefficient tensor at one phase-space point."""
    return _coeff_tensor(np.array([q]), np.array([p]), hbar, N)[:, 0, 0]


def test_coherent_coeffs_match_closed_form():
    # a point off every quadrature grid
    got = _coherent_coeffs(0.7, -1.3, 1.0, 12)
    assert np.max(np.abs(got - poisson_weight_oracle(0.7, -1.3, 1.0, 12))) < 1e-12


def test_vacuum_state_coefficients():
    got = _coherent_coeffs(0.0, 0.0, 1.0, 8)
    assert got[0] == pytest.approx(1.0)
    assert np.max(np.abs(got[1:])) < 1e-13


def test_quantize_unit_is_identity():
    grid = build_grid(1.0, 12, 2)
    m = trusted(berezin_quantize(ONE, 1.0, 12, grid))
    assert np.max(np.abs(m - np.eye(6))) < 1e-8


def _reference_ladder_position(hbar, N):
    m = np.zeros((N, N), dtype=complex)
    for n in range(N - 1):
        v = sqrt(hbar * (n + 1) / 2.0)
        m[n, n + 1] = v
        m[n + 1, n] = v
    return m


def _reference_ladder_momentum(hbar, N):
    m = np.zeros((N, N), dtype=complex)
    for n in range(N - 1):
        v = sqrt(hbar * (n + 1) / 2.0)
        m[n, n + 1] = -1j * v
        m[n + 1, n] = 1j * v
    return m


@pytest.mark.parametrize("hbar", [0.5, 1.0])
@pytest.mark.parametrize("N", [5, 16])
def test_ladder_oracles_keep_their_bytes(hbar, N):
    # the two loops the oracles were written as, one per operator; the
    # momentum matrix's zero real parts are +0.0, which .tobytes() tells
    # from -0.0
    assert ladder_position_oracle(hbar, N).tobytes() == _reference_ladder_position(hbar, N).tobytes()
    assert ladder_momentum_oracle(hbar, N).tobytes() == _reference_ladder_momentum(hbar, N).tobytes()


def test_quantize_position_momentum_ladder_oracles():
    N = 16
    grid = build_grid(1.0, N, 2)
    mq = trusted(berezin_quantize(Q, 1.0, N, grid))
    mp = trusted(berezin_quantize(P, 1.0, N, grid))
    assert np.max(np.abs(mq - trusted(ladder_position_oracle(1.0, N)))) < 1e-7
    assert np.max(np.abs(mp - trusted(ladder_momentum_oracle(1.0, N)))) < 1e-7


def test_degree_exceeds_grid():
    grid = build_grid(1.0, 12, 2)
    with pytest.raises(DegreeExceedsGrid):
        berezin_quantize(Q * Q * Q, 1.0, 12, grid)


def test_linearity():
    N = 12
    grid = build_grid(1.0, N, 2)
    f = Q * Q - P.scale(Fraction(3))
    m = berezin_quantize(f, 1.0, N, grid)
    mq2 = berezin_quantize(Q * Q, 1.0, N, grid)
    mp = berezin_quantize(P, 1.0, N, grid)
    assert np.max(np.abs(m - (mq2 - 3 * mp))) < 1e-12


def test_positivity_of_squares():
    N = 14
    grid = build_grid(1.0, N, 4)
    for f in (Q * Q, Q * Q + P * P):
        m = berezin_quantize(f, 1.0, N, grid)
        assert positivity_preservation(m, tol=1e-9)


@pytest.mark.parametrize("smallest, preserved", [(-1e-6, False), (-1e-11, True)])
def test_positivity_preservation_reads_the_smallest_eigenvalue(smallest, preserved):
    rng = np.random.default_rng(8)
    u = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    qf = np.zeros((12, 12), dtype=complex)
    qf[:6, :6] = u @ np.diag([smallest, 0.5, 1.0, 2.0, 3.0, 4.0]) @ u.conj().T
    qf[6:, 6:] = -np.eye(6)  # outside the trusted block, so not read
    assert positivity_preservation(qf, tol=1e-9) is preserved


def test_cstar_identity_on_quantized():
    N = 14
    grid = build_grid(1.0, N, 2)
    for f in (Q, Q + P):
        assert cstar_check(trusted(berezin_quantize(f, 1.0, N, grid)), 1e-8)


def test_harmonic_oscillator_ordering_shift():
    # quantizing (q^2 + p^2)/2 produces hbar(n + 1) on the diagonal: the
    # coherent-state symbol adds the ground-state width, so the spectrum
    # sits exactly hbar/2 above the Weyl-ordered hbar(n + 1/2)
    N = 16
    h = 1.0
    grid = build_grid(h, N, 2)
    m = trusted(berezin_quantize((Q * Q + P * P).scale(Fraction(1, 2)), h, N, grid))
    diag = np.real(np.diag(m))
    expected = np.array([h * (n + 1.0) for n in range(N // 2)])
    assert np.max(np.abs(diag - expected)) < 1e-7
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-7


def test_canonical_correspondence():
    # (i/hbar-style) bracket of the quantized pair reproduces the identity
    N = 16
    h = 1.0
    grid = build_grid(h, N, 2)
    mq = trusted(berezin_quantize(Q, h, N, grid))
    mp = trusted(berezin_quantize(P, h, N, grid))
    br = op_alpha(mq, mp, h)
    k = mq.shape[0] - 1  # drop the truncation edge row/column
    assert np.max(np.abs(br[:k, :k] - np.eye(k))) < 1e-5


# -- the per-q-node path, kept as the reference for the coefficient tensor ---

def _reference_coeff_block(qv, ps, hbar, N):
    """<n|state(p, qv)> for all p: a Gauss-Hermite rule and a phase table per q-node."""
    nodes = 4 * N + 40
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    x = qv / 2.0 + t * sqrt(hbar / 2.0)
    psi = np.stack(list(_hermite_levels(x, N, hbar)))  # (N, nodes)
    phase = np.exp(1j * np.outer(ps, x) / hbar)  # (np, nodes)
    pref = (
        (pi * hbar) ** -0.25
        * sqrt(hbar / 2.0)
        * np.exp(-qv * qv / (4.0 * hbar))
        * np.exp(-1j * ps * qv / (2.0 * hbar))
    )
    return ((psi * w) @ phase.T) * pref[np.newaxis, :]


def _reference_quantize(fs, hbar, N, grid):
    """The per-q-node berezin_quantize, for each f in fs over one shared tensor.

    f is evaluated on the grid point by point through eval_float.
    """
    C = np.empty((N, len(grid.qs), len(grid.ps)), dtype=complex)
    for iq, qv in enumerate(grid.qs):
        C[:, iq, :] = _reference_coeff_block(qv, grid.ps, hbar, N)
    out = []
    for f in fs:
        fv = np.array([[f.eval_float((qv, pv)) for pv in grid.ps] for qv in grid.qs])
        kern = grid.weights * fv / (2.0 * pi * hbar)
        out.append(np.einsum("mij,ij,nij->mn", C, kern, np.conj(C), optimize=True))
    return out


ORACLE_POLYS = {
    "1": ONE,
    "q": Q,
    "p": P,
    "q^2": Q * Q,
    "qp": Q * P,
    "q^2+p^2": Q * Q + P * P,
    "3q-p^2/2": Q.scale(Fraction(3)) - (P * P).scale(Fraction(1, 2)),
}


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("N, degree", [(12, 2), (16, 4)])
def test_coefficient_tensor_matches_per_node_reference(hbar, N, degree):
    grid = build_grid(hbar, N, degree)
    refs = _reference_quantize(ORACLE_POLYS.values(), hbar, N, grid)
    for (name, f), ref in zip(ORACLE_POLYS.items(), refs):
        got = berezin_quantize(f, hbar, N, grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
def test_coefficient_tensor_matches_poisson_weights_on_the_grid(hbar):
    N = 16
    grid = build_grid(hbar, N, 4)
    C = _coeff_tensor(grid.qs, grid.ps, hbar, N)
    err = max(
        float(np.max(np.abs(C[:, iq, ip] - poisson_weight_oracle(pv, qv, hbar, N))))
        for iq, qv in enumerate(grid.qs)
        for ip, pv in enumerate(grid.ps)
    )
    assert err <= 1e-9


OPERATOR_POLYS = (ONE, Q, P, Q * Q, Q * Q + P * P)


def test_no_hermite_rule_and_no_pointwise_evaluation_per_quantization(monkeypatch):
    counts = {"hermegauss": 0, "eval_float": 0}
    hermegauss = np.polynomial.hermite_e.hermegauss
    eval_float = PhasePoly.eval_float

    def counted_hermegauss(*a):
        counts["hermegauss"] += 1
        return hermegauss(*a)

    def counted_eval_float(*a):
        counts["eval_float"] += 1
        return eval_float(*a)

    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", counted_hermegauss)
    monkeypatch.setattr(PhasePoly, "eval_float", counted_eval_float)
    grid = build_grid(1.0, 16, 4)
    for f in OPERATOR_POLYS:
        berezin_quantize(f, 1.0, 16, grid)
    assert counts == {"hermegauss": 0, "eval_float": 0}


def _oracle_quantize(f, hbar, N, grid, C):
    """The quantization as one einsum over the Gauss-Hermite tensor C of `grid`."""
    fv = np.zeros((len(grid.qs), len(grid.ps)), dtype=complex)
    for (a, b), c in f.terms.items():
        fv += complex(c.real, c.imag) * np.outer(grid.qs**a, grid.ps**b)
    kern = grid.weights * fv / (2.0 * pi * hbar)
    return np.einsum("mij,ij,nij->mn", C, kern, np.conj(C), optimize=True)


def test_quantization_matches_the_oracle_per_key_and_repeats_bit_for_bit():
    grid = build_grid(1.0, 16, 4)
    for hbar, N in ((1.0, 16), (0.5, 16), (0.5, 12)):  # each part of the key matters
        C = _coeff_tensor(grid.qs, grid.ps, hbar, N)
        for f in OPERATOR_POLYS + (Q * P,):
            got = berezin_quantize(f, hbar, N, grid)
            ref = _oracle_quantize(f, hbar, N, grid, C)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert berezin_quantize(f, hbar, N, grid).tobytes() == got.tobytes()


@pytest.mark.parametrize("rest", range(_BLOCK_ROWS))
def test_blocked_quantization_matches_the_oracle_for_every_last_block(rest):
    # the q-rows past the last full block number `rest` (0: every block is full)
    full = build_grid(1.0, 12, 2)
    rows = len(full.qs) - (len(full.qs) - rest) % _BLOCK_ROWS
    grid = QuadratureGrid(2, full.qs[:rows], full.ps, full.weights[:rows])
    assert rows % _BLOCK_ROWS == rest
    C = _coeff_tensor(grid.qs, grid.ps, 1.0, 12)
    for f in (Q, Q * Q + P * P):
        ref = _oracle_quantize(f, 1.0, 12, grid, C)
        got = berezin_quantize(f, 1.0, 12, grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_quantization_holds_no_coefficient_tensor():
    grid = build_grid(1.0, 16, 4)
    tensor_bytes = 16 * len(grid.qs) * len(grid.ps) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        for f in (ONE, Q, Q * Q + P * P):
            berezin_quantize(f, 1.0, 16, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * tensor_bytes
    # nothing is memoized on the grid
    assert [f.name for f in dataclasses.fields(QuadratureGrid)] == ["exact_degree", "qs", "ps", "weights"]


@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan")])
def test_non_positive_hbar_is_rejected(hbar):
    with pytest.raises(ValueError, match="hbar must be positive"):
        build_grid(hbar, 16, 2)
    with pytest.raises(ValueError, match="hbar must be positive"):
        berezin_quantize(Q, hbar, 16, build_grid(1.0, 16, 2))


def test_split_complex_coefficient_has_no_complex_value():
    f = Q.scale(J_SPLIT)
    with pytest.raises(ValueError, match="SplitComplex"):
        f.eval_float((1.0, 0.0))
    with pytest.raises(ValueError, match="SplitComplex"):
        berezin_quantize(f, 1.0, 12, build_grid(1.0, 12, 2))


def test_dual_coefficient_has_no_complex_value():
    f = Q.scale(EPS_DUAL)
    with pytest.raises(ValueError, match="DualNumber"):
        f.eval_float((1.0, 0.0))
    with pytest.raises(ValueError, match="DualNumber"):
        berezin_quantize(f, 1.0, 12, build_grid(1.0, 12, 2))


def test_complex_coefficient_is_read_as_i():
    assert complex(I_COMPLEX) == 1j
    assert complex(ComplexRational(Fraction(1, 3), -2)) == complex(1 / 3, -2.0)
    f = Q.scale(I_COMPLEX)
    assert f.eval_float((1.0, 0.0)) == 1j
    grid = build_grid(1.0, 12, 2)
    got = berezin_quantize(f, 1.0, 12, grid)
    ref = 1j * berezin_quantize(Q, 1.0, 12, grid)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
