import random
from math import pi

import numpy as np
import pytest

from compalg.envariance import (
    PureState,
    bell_state,
    counter_unitary,
    random_state,
    restores,
    schmidt,
    system_unitary,
    verify_reflexivity,
    verify_symmetry,
    verify_transitivity,
    winding_independence,
)
from compalg.errors import DimensionBlowup, NotSchmidtDiagonal


def test_bell_state_schmidt_coefficients():
    sf = schmidt(bell_state())
    assert np.allclose(sf.lambdas, [1 / np.sqrt(2)] * 2, atol=1e-15)


def test_product_state_schmidt_rank_one():
    left, right = np.array([1.0, 2j]), np.array([3.0, 1.0, 1j])
    v = np.kron(left / np.linalg.norm(left), right / np.linalg.norm(right))
    st = PureState((2, 3), v)
    sf = schmidt(st)
    assert sf.lambdas[0] == pytest.approx(1.0)
    assert np.max(np.abs(sf.lambdas[1:])) < 1e-14


def _reference_random_state(rng, d1, d2):
    """`random_state` with one complex(gauss, gauss) per amplitude."""
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d1 * d2)])
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_random_state_matches_the_gauss_loop_bit_for_bit(seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for d1, d2 in [(2, 2), (2, 3), (4, 3), (1, 1)]:
        st = random_state(rng, d1, d2)
        assert st.dims == (d1, d2)
        assert st.amplitudes.tobytes() == _reference_random_state(ref_rng, d1, d2).tobytes()
    assert rng.getstate() == ref_rng.getstate()


def test_schmidt_reconstruction_against_svd_oracle():
    rng = random.Random(0)
    for _ in range(20):
        st = random_state(rng, 4, 5)
        sf = schmidt(st)
        m = st.matrix()
        assert np.max(np.abs(sf.reconstruct() - m)) < 1e-12
        # descending coefficients match the library singular values
        assert np.allclose(sf.lambdas, np.linalg.svd(m, compute_uv=False), atol=1e-12)
        # orthonormal bases
        r = len(sf.lambdas)
        assert np.max(np.abs(sf.left.conj().T @ sf.left - np.eye(r))) < 1e-12
        assert np.max(np.abs(sf.right.conj().T @ sf.right - np.eye(r))) < 1e-12


def test_phase_convention_deterministic():
    rng = random.Random(1)
    st = random_state(rng, 3, 3)
    a = schmidt(st)
    b = schmidt(st)
    assert np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right)
    # first non-negligible component of each left column is real positive
    for k in range(a.left.shape[1]):
        col = a.left[:, k]
        idx = int(np.argmax(np.abs(col) > 1e-12))
        assert col[idx].real > 0 and abs(col[idx].imag) < 1e-12


def test_reflexivity_sweep():
    rng = random.Random(2)
    for _ in range(100):
        d1 = rng.randint(2, 4)
        d2 = rng.randint(2, 4)
        st = random_state(rng, d1, d2)
        phases = [rng.uniform(-pi, pi) for _ in range(min(d1, d2))]
        assert verify_reflexivity(st, phases, tol=1e-12)


def test_symmetry_sweep_with_negative_control():
    rng = random.Random(3)
    broken = 0
    for _ in range(100):
        st = random_state(rng, rng.randint(2, 4), rng.randint(2, 4))
        phases = [rng.uniform(-pi, pi) for _ in range(min(st.dims))]
        assert verify_symmetry(st, phases, tol=1e-12)
        # negative control: the counter-unitary's entrywise conjugate in
        # place of its inverse
        sf = schmidt(st)
        v_p = system_unitary(sf, phases, st.dims[0])
        u_n = counter_unitary(sf, v_p.conj().T)
        if restores(st, v_p, np.conj(u_n)) > 1e-12:
            broken += 1
    assert broken == 100  # the sabotaged inverse must fail every generic case


def test_transitivity_sweep():
    rng = random.Random(4)
    xi = np.array([1.0, 0.0])
    eta = np.array([0.6, 0.8j])
    for _ in range(100):
        st = random_state(rng, 2, 2)
        phases = [rng.uniform(-pi, pi), rng.uniform(-pi, pi)]
        assert verify_transitivity(st, phases, xi, eta, tol=1e-11)


def test_transitivity_four_by_four_with_trivial_ancillas():
    rng = random.Random(5)
    one = np.array([1.0])
    st = random_state(rng, 4, 4)
    phases = [rng.uniform(-pi, pi) for _ in range(4)]
    assert verify_transitivity(st, phases, one, one, tol=1e-11)


def test_dimension_blowup_raised():
    rng = random.Random(6)
    st = random_state(rng, 4, 4)
    with pytest.raises(DimensionBlowup):
        verify_transitivity(st, [0.1] * 4, np.array([1.0, 0.0]), np.array([1.0]))


def test_not_schmidt_diagonal_rejected():
    rng = random.Random(7)
    st = random_state(rng, 3, 3)
    sf = schmidt(st)
    hadamard_like = np.array(
        [[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]], dtype=complex
    ) / np.sqrt(2)
    with pytest.raises(NotSchmidtDiagonal):
        counter_unitary(sf, hadamard_like)
    with pytest.raises(NotSchmidtDiagonal):
        counter_unitary(sf, 2.0 * np.eye(3, dtype=complex))


def test_winding_independence_exact():
    rng = random.Random(8)
    for _ in range(20):
        st = random_state(rng, 3, 4)
        phases = [rng.uniform(-pi, pi) for _ in range(3)]
        assert winding_independence(st, phases)


def test_bell_phase_chain_frozen():
    st = bell_state()
    sf = schmidt(st)
    u_p = system_unitary(sf, [0.3, -1.1], 2)
    u_n = counter_unitary(sf, u_p)
    assert restores(st, u_p, u_n) < 1e-14
    # without the counter-unitary the state genuinely moves
    assert restores(st, u_p, np.eye(2, dtype=complex)) > 0.1


def test_nonunit_norm_rejected():
    with pytest.raises(ValueError):
        PureState((2, 2), np.array([1.0, 1.0, 0.0, 0.0]))
