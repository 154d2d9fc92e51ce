import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from compalg import hilbert
from compalg.algebra import beta_product, check_all_identities, check_identity, sample_poly
from compalg.errors import DimMismatch, EigenFailure, NonSymplecticW
from compalg.hilbert import (
    build_kahler,
    cstar_check,
    hermitian_eigenvalues,
    hermitean_property_check,
    inner_product,
    lie_bracket_fields,
    matrix_carrier,
    nijenhuis_constant_J,
    normalization_constraint_check,
    op_alpha,
    op_sigma,
    sample_compatible_symplectic,
    sample_hermitian,
    spectral_norm,
)
from compalg.phasepoly import PhasePoly

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_bracket_frozen_value():
    # alpha(X, Y) at hbar = 2 is [X, Y]/(2i) = Z
    assert np.allclose(op_alpha(PAULI_X, PAULI_Y, 2.0), PAULI_Z, atol=1e-14)
    assert np.allclose(op_sigma(PAULI_X, PAULI_Y), np.zeros((2, 2)), atol=1e-14)


def test_op_shape_checks():
    with pytest.raises(DimMismatch):
        op_alpha(np.eye(2), np.eye(3))
    with pytest.raises(DimMismatch):
        op_sigma(np.ones((2, 3)), np.ones((2, 3)))


_JACOBI_SWEEPS = 60
_JACOBI_TOL = 1e-14


def _reference_jacobi(h):
    """The slow path: cyclic Jacobi on numpy rows with the eigenvectors.

    Returns (w ascending, unitary V).  V = prod U is stacked under A, so one
    column rotation updates both; rows and columns are rotated separately.
    """
    n = h.shape[0]
    av = np.vstack([np.array(h, dtype=complex), np.eye(n, dtype=complex)])
    a, v = av[:n], av[n:]
    limit = _JACOBI_TOL * max(1.0, float(np.max(np.abs(a))))
    for _ in range(_JACOBI_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = complex(a[p, q])
                mag = abs(apq)
                if mag <= limit:
                    continue
                off = max(off, mag)
                ph = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                cp, cq = av[:, p].copy(), ph.conjugate() * av[:, q]
                av[:, p] = c * cp - s * cq
                av[:, q] = s * cp + c * cq
                rp, rq = a[p, :].copy(), ph * a[q, :]
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
        if off <= limit:
            w = a.diagonal().real
            order = np.argsort(w)
            return w[order], v[:, order]
    raise EigenFailure("Jacobi sweeps did not converge")


def _check_against_oracle(a):
    dim = a.shape[0]
    w, v = _reference_jacobi(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    # residual contract
    for k in range(dim):
        assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) <= 1e-11 * scale
    # orthonormality
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10
    # eigenvalue agreement with the library oracle, ascending
    oracle = np.linalg.eigvalsh(a)
    assert np.max(np.abs(w - oracle)) <= 1e-10 * scale
    # the package solver against the slow path and the library
    got = hermitian_eigenvalues(a)
    assert np.max(np.abs(got - w)) <= 1e-12 * scale
    assert np.max(np.abs(got - oracle)) <= 1e-10 * scale


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 12, 16])
def test_eigensolver_against_numpy_oracle(dim):
    rng = random.Random(dim)
    for _ in range(5):
        _check_against_oracle(sample_hermitian(rng, dim))


def _random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


U6 = _random_unitary(6, 4)
LADDER = np.sqrt(np.arange(1, 12) / 2.0)
SPECIAL_MATRICES = {
    "pauli-y": PAULI_Y,  # purely imaginary off-diagonal
    "identity-8": np.eye(8, dtype=complex),
    "one-by-one": np.array([[-2.5 + 0j]]),
    "diagonal-repeated": np.diag([3.0, -1.0, 3.0, 0.5]).astype(complex),
    # the degenerate spectrum the real embedding's pair heuristics existed for
    "degenerate-1-1-1-2-2-3": U6 @ np.diag([1.0, 1, 1, 2, 2, 3]) @ U6.conj().T,
    "zero-8": np.zeros((8, 8), dtype=complex),
    # real symmetric tridiagonal: the oscillator's position ladder
    "ladder-12": np.diag(LADDER, 1) + np.diag(LADDER, -1),
    "scaled-1e-8": 1e-8 * sample_hermitian(random.Random(3), 8),
    "scaled-1e8": 1e8 * sample_hermitian(random.Random(3), 8),
}


@pytest.mark.parametrize("name", sorted(SPECIAL_MATRICES))
def test_eigensolver_special_matrices(name):
    _check_against_oracle(SPECIAL_MATRICES[name])


def test_eigensolver_on_the_benchmark_shape():
    # the operator benchmark's matrices: cstar_check solves T^dagger T and its square
    rng = random.Random(5)
    for _ in range(100):
        t = sample_hermitian(rng, 8) + 1j * sample_hermitian(rng, 8)
        a = t.conj().T @ t
        _check_against_oracle(a)
        _check_against_oracle(a.conj().T @ a)


def test_eigensolver_reads_the_upper_triangle():
    a = sample_hermitian(random.Random(2), 6)
    garbled = np.triu(a) + np.tril(np.full((6, 6), 7 - 3j), -1) + 1e-3j * np.eye(6)
    assert np.array_equal(hermitian_eigenvalues(garbled), hermitian_eigenvalues(a))


@pytest.mark.parametrize("k", [-1000, -520, 520, 1000])
def test_eigensolver_is_exact_under_power_of_two_scaling(k):
    # squared entries leave the float range past 2**(+-512); the solver
    # scales to unit magnitude first, and a power of two scales exactly
    a = sample_hermitian(random.Random(4), 8)
    scaled = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    assert np.array_equal(hermitian_eigenvalues(scaled), np.ldexp(hermitian_eigenvalues(a), k))


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(hilbert, "_QL_ITERATIONS", 1)
    with pytest.raises(EigenFailure):
        hermitian_eigenvalues(sample_hermitian(random.Random(0), 8))


@pytest.mark.parametrize("index, bad", [
    ((1, 3), np.inf),  # once skipped every pivot: eye(4)'s eigenvalues came back
    ((1, 3), complex(0, -np.inf)),
    ((0, 1), np.nan),
    ((2, 2), np.inf),
    ((2, 2), np.nan),
])
def test_non_finite_entry_raises(index, bad):
    a = np.eye(4, dtype=complex)
    a[index] = bad
    with pytest.raises(EigenFailure):
        hermitian_eigenvalues(a)


def test_non_finite_entries_that_are_not_read_are_ignored():
    a = np.eye(4, dtype=complex)
    a[3, 1] = np.nan  # below the diagonal
    a[2, 2] = complex(2.0, np.inf)  # imaginary part of the diagonal
    assert np.array_equal(hermitian_eigenvalues(a), [1.0, 1.0, 1.0, 2.0])


def _reference_sample_hermitian(rng, dim):
    """The nested construction: one complex(real, imag) per entry, row by row."""
    m = np.array(
        [[complex(rng.gauss(0, 2.0), rng.gauss(0, 2.0)) for _ in range(dim)]
         for _ in range(dim)]
    )
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("dim", range(1, 9))
def test_sample_hermitian_matches_nested_construction(dim):
    for seed, pending in [(dim, False), (17, True), (2**31 - 1, False), (2**31 - 1, True)]:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        if pending:  # start from a stored gauss_next
            rng.gauss(0, 1), ref_rng.gauss(0, 1)
        for _ in range(3):
            got, ref = sample_hermitian(rng, dim), _reference_sample_hermitian(ref_rng, dim)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert rng.getstate() == ref_rng.getstate()


def _gauss_loop(rng, n, sigma):
    """The stdlib oracle of `hilbert._gauss_draws`: one `gauss` call per draw."""
    return [rng.gauss(0, sigma) for _ in range(n)]


@pytest.mark.parametrize("pending", [False, True])
# 0.3 is no power of two, so a reassociated product rounds differently
@pytest.mark.parametrize("sigma", [1, 0.5, 2.0, 0.3])
@pytest.mark.parametrize("n", range(10))
def test_gauss_draws_are_the_gauss_stream_bit_for_bit(n, sigma, pending):
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        if pending:  # one earlier draw leaves its pair's sine in gauss_next
            rng.gauss(0, 1), ref.gauss(0, 1)
            assert rng.gauss_next is not None
        got, want = hilbert._gauss_draws(rng, n, sigma), _gauss_loop(ref, n, sigma)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert rng.getstate() == ref.getstate()


class _ScriptedUniforms(random.Random):
    """A generator whose `random()` replays the given uniforms."""

    def __init__(self, uniforms):
        super().__init__(0)
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)


@pytest.mark.parametrize("n", [3, 4])
def test_gauss_draws_turn_a_negative_zero_into_zero(n):
    # a second uniform of 0 makes the radius sqrt(-0.0) = -0.0; gauss returns 0 + (-0.0) = 0.0
    uniforms = (0.1, 0.0, 0.3, 0.0)
    rng, ref = _ScriptedUniforms(uniforms), _ScriptedUniforms(uniforms)
    got, want = hilbert._gauss_draws(rng, n, 2.0), _gauss_loop(ref, n, 2.0)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert "-0x0.0p+0" not in [x.hex() for x in got]
    assert (rng.gauss_next is None) == (ref.gauss_next is None)
    if n % 2:
        assert rng.gauss_next.hex() == ref.gauss_next.hex() == "-0x0.0p+0"


def _reference_compatible_symplectic(rng, n):
    """`sample_compatible_symplectic` with one complex(gauss, gauss) per entry."""
    h = np.array(
        [[complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for _ in range(n)]
         for _ in range(n)]
    )
    h = 0.5 * (h - h.conj().T)
    return hilbert._expm(np.block([[h.real, -h.imag], [h.imag, h.real]]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_compatible_symplectic_matches_the_gauss_loop_bit_for_bit(n):
    for seed in (0, 5, 11):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = sample_compatible_symplectic(rng, n)
            assert got.tobytes() == _reference_compatible_symplectic(ref_rng, n).tobytes()
        assert rng.getstate() == ref_rng.getstate()


def test_spectral_norm_against_numpy_oracle():
    rng = random.Random(99)
    for dim in (2, 4, 6):
        for _ in range(10):
            t = sample_hermitian(rng, dim) + 1j * sample_hermitian(rng, dim)
            assert spectral_norm(t) == pytest.approx(np.linalg.norm(t, 2), rel=1e-10)


def test_cstar_identity_sweep():
    rng = random.Random(7)
    for _ in range(50):
        t = sample_hermitian(rng, 8) + 1j * sample_hermitian(rng, 8)
        assert cstar_check(t, rtol=1e-10)


def test_matrix_carrier_identities():
    for dim in (4, 6):
        carrier = matrix_carrier(dim)
        for rep in check_all_identities(carrier, count=8, seed=3):
            assert rep.passed, (dim, rep.identity)
            assert rep.max_residual <= 1e-12


def test_matrix_carrier_tolerance_scales_with_dimension():
    # absolute 1e-12 gives false jordan failures at dim 16 (residuals ~2e-12)
    for rep in check_all_identities(matrix_carrier(16), count=50, seed=0):
        assert rep.passed, (rep.identity, rep.failures[:1])


def test_matrix_carrier_scaled_tolerance_can_fail():
    good = matrix_carrier(16)
    bad = dataclasses.replace(good, alpha=lambda x, y: (1 + 1e-9) * good.alpha(x, y))
    rep = check_identity(bad, "compatibility", count=10, seed=0)
    assert not rep.passed and rep.max_residual > 1e-10


def test_beta_minus_is_matrix_product():
    carrier = matrix_carrier(5)
    beta = beta_product(carrier, sign=-1)
    rng = random.Random(1)
    for _ in range(10):
        a, b = carrier.sample(rng), carrier.sample(rng)
        assert np.max(np.abs(beta(a, b) - a @ b)) <= 1e-14 * max(
            1.0, float(np.max(np.abs(a @ b)))
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kahler_triple_relations(n):
    tr = build_kahler(n)
    eye = np.eye(2 * n, dtype=np.int64)
    assert np.array_equal(tr.Omega @ tr.J, tr.g)
    assert np.array_equal(tr.J.T @ tr.g, tr.Omega)
    assert np.array_equal(tr.J @ tr.J, -eye)
    rng = random.Random(n)
    for _ in range(20):
        x = np.array([rng.randint(-9, 9) for _ in range(2 * n)])
        y = np.array([rng.randint(-9, 9) for _ in range(2 * n)])
        assert hermitean_property_check(tr, x, y)


def test_inner_product_frozen_value():
    tr = build_kahler(3)
    e1 = np.zeros(6, dtype=np.int64)
    e1[0] = 1
    e4 = np.zeros(6, dtype=np.int64)
    e4[3] = 1
    assert inner_product(tr, e1, e4) == 1j  # <e_1, e_{n+1}> = i
    assert inner_product(tr, e1, e1) == 1 + 0j


def test_inner_product_real_part_is_metric():
    tr = build_kahler(2)
    rng = random.Random(5)
    for _ in range(20):
        x = np.array([rng.randint(-5, 5) for _ in range(4)])
        assert inner_product(tr, x, x).real == x @ tr.g @ x
        assert inner_product(tr, x, x).imag == 0


def test_nijenhuis_vanishes_for_constant_J():
    tr = build_kahler(1)
    rng = random.Random(9)
    for _ in range(50):
        r = tuple(sample_poly(rng, 1, 1) for _ in range(2))  # linear fields
        s = tuple(sample_poly(rng, 1, 1) for _ in range(2))
        n = nijenhuis_constant_J(tr, r, s)
        assert all(not comp for comp in n)


def test_lie_bracket_fields_oracle():
    # R = p d_q and S = q d_p give [R, S] = -q d_q + p d_p
    q, p = PhasePoly.q(), PhasePoly.p()
    zero = PhasePoly(1)
    br = lie_bracket_fields((p, zero), (zero, q))
    assert br[0] == -q and br[1] == p


def test_normalization_preserved_under_compatible_symplectic():
    tr = build_kahler(2)
    rng = random.Random(11)
    for _ in range(100):
        w = sample_compatible_symplectic(rng, 2)
        x = np.array([rng.gauss(0, 1) for _ in range(4)])
        x = x / np.sqrt(x @ tr.g.astype(float) @ x)
        assert normalization_constraint_check(tr, x, w, tol=1e-10)


def test_non_symplectic_rejected():
    tr = build_kahler(1)
    x = np.array([1.0, 0.0])
    with pytest.raises(NonSymplecticW):
        normalization_constraint_check(tr, x, np.diag([2.0, 0.5]))


def test_eigenvalues_of_known_matrix():
    a = np.array([[2, 1], [1, 2]], dtype=complex)
    w = hermitian_eigenvalues(a)
    assert np.allclose(np.sort(w), [1.0, 3.0], atol=1e-12)
