import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from compalg import quantion
from compalg.errors import CliffordViolation
from compalg.phasepoly import PhasePoly
from compalg.quantion import (
    GammaRep,
    PAULI,
    Quantion,
    anorm,
    box,
    candidate_reps,
    clifford_check,
    dalembertian_factorization,
    dirac_current,
    dirac_current_check,
    norms_commute,
    q_dagger,
    q_det,
    q_mul,
    q_sharp,
    rep_discovery,
    sample_quantion,
    to_spinor,
)

Q_ONE = Quantion(1, 0, 0, 1)


def _reference_quantion(rng, scale=2.0):
    """`sample_quantion` with one complex(gauss, gauss) per entry."""
    def z():
        return complex(rng.gauss(0, scale), rng.gauss(0, scale))

    return Quantion(z(), z(), z(), z())


def _bits(q):
    return [(type(z), z.real.hex(), z.imag.hex()) for z in (q.a, q.b, q.c, q.d)]


@pytest.mark.parametrize("scale", [2.0, 0.5])
@pytest.mark.parametrize("seed", [0, 9, 123])
def test_sample_quantion_matches_the_gauss_loop_bit_for_bit(seed, scale):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    rng.gauss(0, 1), ref_rng.gauss(0, 1)  # start from a pending gauss_next
    for _ in range(5):
        assert _bits(sample_quantion(rng, scale)) == _bits(_reference_quantion(ref_rng, scale))
    assert rng.getstate() == ref_rng.getstate()


def test_sharp_times_self_is_determinant():
    rng = random.Random(0)
    for _ in range(100):
        q = sample_quantion(rng)
        m = q_mul(q_sharp(q), q)
        d = q_det(q)
        assert abs(m.a - d) < 1e-12 and abs(m.d - d) < 1e-12
        assert abs(m.b) < 1e-12 and abs(m.c) < 1e-12


def test_involutions():
    rng = random.Random(1)
    for _ in range(50):
        q = sample_quantion(rng)
        assert q_dagger(q_dagger(q)) == q
        assert q_sharp(q_sharp(q)) == q
        # both are antihomomorphisms
        r = sample_quantion(rng)
        lhs = q_sharp(q_mul(q, r)).as_matrix()
        rhs = q_mul(q_sharp(r), q_sharp(q)).as_matrix()
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_anorm_pauli_expansion():
    rng = random.Random(2)
    for _ in range(50):
        q = sample_quantion(rng)
        a = anorm(q)
        rebuilt = (
            a.t * PAULI["t"] + a.x * PAULI["x"] + a.y * PAULI["y"] + a.z * PAULI["z"]
        )
        m = q_mul(q_dagger(q), q).as_matrix()
        assert np.max(np.abs(rebuilt - m)) < 1e-10
        assert a.future_oriented(tol=1e-9)


def test_norms_commute_sweep():
    rng = random.Random(3)
    for _ in range(1000):
        assert norms_commute(sample_quantion(rng), tol=1e-6)


def test_spinor_map_frozen_value_and_roundtrip():
    q = Quantion(0, 0, 2.0**0.5, 0)
    psi = to_spinor(q)
    assert np.allclose(psi, [1, 0, 0, 0], atol=1e-15)
    # the other three entries land on distinct components, b and d conjugated,
    # so the map is a bijection
    s = 2.0**0.5
    for q, want in ((Quantion(s, 0, 0, 0), [0, -1, 0, 0]),
                    (Quantion(0, 1j * s, 0, 0), [0, 0, -1j, 0]),
                    (Quantion(0, 0, 0, 1j * s), [0, 0, 0, -1j])):
        assert np.allclose(to_spinor(q), want, atol=1e-15)


def test_all_candidates_satisfy_clifford():
    reps = candidate_reps()
    assert len(reps) == 96
    for rep in reps:
        assert clifford_check(rep.gammas)


def test_clifford_violation_raised():
    with pytest.raises(CliffordViolation, match="broken"):
        GammaRep("broken", tuple(np.eye(4, dtype=complex) for _ in range(4)))


def test_each_rep_is_clifford_checked_once(monkeypatch):
    calls = []

    def counting_check(gammas, tol=1e-12):
        calls.append(id(gammas))
        return clifford_check(gammas, tol)

    monkeypatch.setattr(quantion, "clifford_check", counting_check)
    best = rep_discovery(seed=0)  # 96 candidates, 20 probes each, then 20 rechecks
    assert len(calls) == len(set(calls)) == 96
    rng = random.Random(9)
    assert all(dirac_current_check(sample_quantion(rng), best) for _ in range(50))
    assert len(calls) == 96
    # the check belongs to the built rep: building the candidates again checks each again
    again = candidate_reps()
    assert again[0] is not best and len(calls) == 2 * 96


def _gamma_dirac():
    """The Dirac basis as built before the two bases shared one builder."""
    g0 = np.block(
        [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]
    ).astype(complex)
    gs = [
        np.block([[np.zeros((2, 2)), PAULI[k]], [-PAULI[k], np.zeros((2, 2))]])
        for k in ("x", "y", "z")
    ]
    return [g0] + gs


def _gamma_weyl():
    """The Weyl basis as built before the two bases shared one builder."""
    z = np.zeros((2, 2))
    g0 = np.block([[z, np.eye(2)], [np.eye(2), z]]).astype(complex)
    gs = [
        np.block([[z, PAULI[k]], [-PAULI[k], z]]) for k in ("x", "y", "z")
    ]
    return [g0] + gs


@pytest.mark.parametrize("family, oracle", [("dirac", _gamma_dirac), ("weyl", _gamma_weyl)])
def test_gamma_basis_matches_the_per_family_builders_bit_for_bit(family, oracle):
    got, want = quantion._gamma_basis(family), oracle()
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_reps_compare_and_hash_by_label():
    first, second = candidate_reps(), candidate_reps()
    assert first == second and first[0] is not second[0]
    assert all(hash(a) == hash(b) for a, b in zip(first, second))
    reps = set(first) | set(second)
    assert len(reps) == 96 and {r.label for r in reps} == {r.label for r in first}
    assert first[0] != first[1]


def test_rep_discovery_unique_winner():
    best = rep_discovery(seed=0)
    assert best.label == "weyl-perm(1, 2, 3)-signs(1, 1, 1)"
    # uniqueness: the winner set on the probe family has exactly one member
    probes = [sample_quantion(random.Random(0)) for _ in range(20)]
    winners = [
        r
        for r in candidate_reps()
        if all(dirac_current_check(q, r, 1e-9) for q in probes)
    ]
    assert len(winners) == 1


def test_rep_discovery_stable_across_seeds():
    assert rep_discovery(seed=0).label == rep_discovery(seed=17).label


def test_current_negative_control():
    # a wrong-but-valid representation fails the current equality
    best = rep_discovery(seed=0)
    rng = random.Random(7)
    probes = [sample_quantion(rng) for _ in range(10)]
    flipped = next(
        r for r in candidate_reps() if r.label == "weyl-perm(1, 2, 3)-signs(1, 1, -1)"
    )
    assert clifford_check(flipped.gammas)
    assert not all(dirac_current_check(q, flipped, 1e-9) for q in probes)
    assert all(dirac_current_check(q, best, 1e-9) for q in probes)


def test_current_is_real():
    best = rep_discovery(seed=0)
    rng = random.Random(8)
    for _ in range(20):
        j = dirac_current(to_spinor(sample_quantion(rng)), best.gammas)
        assert j.dtype == float


def sympy_box(P: PhasePoly):
    xs = sp.symbols("x0 x1 x2 x3")
    expr = sp.Integer(0)
    for e, c in P.terms.items():
        cc = sp.Rational(c.real.numerator, c.real.denominator) + sp.I * sp.Rational(
            c.imag.numerator, c.imag.denominator
        )
        term = cc
        for s, k in zip(xs, e):
            term *= s**k
        expr += term
    out = sp.diff(expr, xs[0], 2)
    for k in (1, 2, 3):
        out -= sp.diff(expr, xs[k], 2)
    return sp.expand(out), xs


def to_sympy4(P: PhasePoly, xs):
    expr = sp.Integer(0)
    for e, c in P.terms.items():
        cc = sp.Rational(c.real.numerator, c.real.denominator) + sp.I * sp.Rational(
            c.imag.numerator, c.imag.denominator
        )
        term = cc
        for s, k in zip(xs, e):
            term *= s**k
        expr += term
    return sp.expand(expr)


def sample_poly4(rng, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(4)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-4, 4))
    return PhasePoly(2, terms)


def test_box_against_sympy_oracle():
    rng = random.Random(9)
    for _ in range(20):
        P = sample_poly4(rng, 4)
        mine = box(P)
        oracle, xs = sympy_box(P)
        assert sp.expand(to_sympy4(mine, xs) - oracle) == 0


def test_dalembertian_frozen_values():
    x0 = PhasePoly.q(1, 2)  # axis 0
    assert box(x0 * x0) == PhasePoly.const(2, 2)
    assert dalembertian_factorization(x0 * x0)
    assert dalembertian_factorization(x0)  # linear: box = 0 and factorization holds
    assert box(x0) == PhasePoly(2)


def test_dalembertian_factorization_sweep():
    rng = random.Random(10)
    for _ in range(100):
        assert dalembertian_factorization(sample_poly4(rng, 4))


def test_dalembertian_degree_cap():
    x0 = PhasePoly.q(1, 2)
    f = x0
    for _ in range(6):
        f = f * x0
    with pytest.raises(ValueError):
        dalembertian_factorization(f)

