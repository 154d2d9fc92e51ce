import random
from fractions import Fraction

import pytest

from compalg.algebra import (
    IDENTITIES,
    beta_product,
    check_all_identities,
    check_identity,
    check_monoid,
    compose_bipartite,
    falsify_nonzero_a,
    phase_poly_carrier,
    sample_poly,
    single_product_triviality,
    tensor,
)
from compalg.errors import ClassMismatch, HBarMismatch, UnexpectedPass
from compalg.hilbert import matrix_carrier
from compalg.phasepoly import CLASSES, ELLIPTIC, HYPERBOLIC, PARABOLIC, PhasePoly

HBARS = (Fraction(1, 2), Fraction(2), Fraction(3))


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("hbar", HBARS)
def test_identities_exact(cls, hbar):
    carrier = phase_poly_carrier(cls, hbar, dof=1, max_degree=4)
    for rep in check_all_identities(carrier, count=12, seed=1):
        assert rep.passed, (cls, hbar, rep.identity, rep.failures[:1])
        assert rep.max_residual == 0.0


def test_identities_dof2():
    carrier = phase_poly_carrier(ELLIPTIC, Fraction(2), dof=2, max_degree=3)
    for rep in check_all_identities(carrier, count=8, seed=2):
        assert rep.passed and rep.max_residual == 0.0


def test_identity_report_shape():
    carrier = phase_poly_carrier(PARABOLIC)
    rep = check_identity(carrier, "jacobi", count=5, seed=0)
    d = rep.to_dict()
    assert d["verdict"] == "pass" and d["samples"] == 5
    with pytest.raises(ValueError):
        check_identity(carrier, "no-such-identity")


def test_beta_associative_and_unital():
    rng = random.Random(3)
    for cls in CLASSES:
        c = phase_poly_carrier(cls, Fraction(2), 1, 3)
        beta = beta_product(c)
        one = c.unit
        for _ in range(6):
            f, g, h = (sample_poly(rng, 1, 3) for _ in range(3))
            assert beta(beta(f, g), h) == beta(f, beta(g, h))
            assert beta(one, f) == f and beta(f, one) == f


def test_bipartite_preserves_identities():
    for cls in CLASSES:
        c = phase_poly_carrier(cls, Fraction(2), 1, 2)
        bip = compose_bipartite(c, c)
        for ident in IDENTITIES:
            rep = check_identity(bip, ident, count=4, seed=4)
            assert rep.passed, (cls, ident, rep.failures[:1])


def test_monoid_laws():
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 2)
    rep = check_monoid(c, c, c, count=10, seed=5)
    assert rep.passed and rep.max_residual == 0.0


def test_monoid_laws_other_classes():
    for cls in (PARABOLIC, HYPERBOLIC):
        c = phase_poly_carrier(cls, Fraction(2), 1, 2)
        rep = check_monoid(c, c, c, count=5, seed=6)
        assert rep.passed


def test_composition_requires_matching_class_and_hbar():
    a = phase_poly_carrier(ELLIPTIC, Fraction(2))
    b = phase_poly_carrier(HYPERBOLIC, Fraction(2))
    with pytest.raises(ClassMismatch):
        compose_bipartite(a, b)
    c = phase_poly_carrier(ELLIPTIC, Fraction(3))
    with pytest.raises(HBarMismatch):
        compose_bipartite(a, c)


@pytest.mark.parametrize("a", [Fraction(1), Fraction(-1), Fraction(1, 2)])
def test_falsify_nonzero_a_finds_counterexample(a):
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 3)
    rep = falsify_nonzero_a(c, c, a, count=60, seed=7)
    assert rep.expected == "fail"
    assert rep.passed  # "passes" by producing the required counterexample
    assert rep.failures


def test_falsify_zero_a_passes():
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 3)
    rep = falsify_nonzero_a(c, c, Fraction(0), count=30, seed=8)
    assert rep.expected == "pass" and rep.passed and not rep.failures


def test_falsify_weak_sampler_raises():
    # constants commute with everything, so no counterexample can appear
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 3)
    import dataclasses

    const_sampler = lambda rng: PhasePoly.const(Fraction(rng.randint(1, 5)), 1)
    weak = dataclasses.replace(c, sample=const_sampler)
    with pytest.raises(UnexpectedPass):
        falsify_nonzero_a(weak, weak, Fraction(1), count=10, seed=9)


def test_single_product_triviality():
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 3)
    rep = single_product_triviality(c, count=20, seed=10)
    assert rep.passed


def test_tensor_decompose_cancellation():
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 2)
    bip = compose_bipartite(c, c)
    q = PhasePoly.q()
    t = bip.add(tensor(c, c, q, q), bip.scale(tensor(c, c, q, q), Fraction(-1)))
    assert bip.decompose(t) == {}
    assert bip.is_zero(t)


def test_basis_inverts_decompose():
    c = phase_poly_carrier(HYPERBOLIC, Fraction(2), 2, 3)
    m = matrix_carrier(3)
    bip = compose_bipartite(c, c)
    nested = compose_bipartite(bip, c)
    cases = [
        (c, (1, 0, 2, 1)),
        (m, (2, 0)),
        (bip, ((0, 1, 0, 0), (1, 1, 0, 2))),
        (nested, (((0, 0, 0, 0), (1, 0, 0, 0)), (0, 0, 0, 3))),
    ]
    for carrier, k in cases:
        assert carrier.decompose(carrier.basis(k)) == {k: 1}, (carrier.name, k)
    # a composite element is its own canonical dict
    t = tensor(c, c, PhasePoly.q(1, 2), PhasePoly.p(2, 2))
    assert bip.decompose(t) is t


def _as_dof2(x) -> PhasePoly:
    """A composite of dof-1 factors as a dof-2 poly: ((q1, p1), (q2, p2)) -> (q1, q2, p1, p2)."""
    return PhasePoly(2, {(q1, q2, p1, p2): v for ((q1, p1), (q2, p2)), v in x.items()})


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("hbar", HBARS)
def test_composition_oracle_is_dof2_carrier(cls, hbar):
    """For a = 0, star1 (x) star2 is the star product on R^4, so the
    composite of two dof-1 carriers is the dof-2 carrier."""
    c1 = phase_poly_carrier(cls, hbar, dof=1, max_degree=3)
    c2 = phase_poly_carrier(cls, hbar, dof=2)
    bip = compose_bipartite(c1, c1)
    rng = random.Random(12)
    for _ in range(20):
        x, y = (tensor(c1, c1, c1.sample(rng), c1.sample(rng)) for _ in range(2))
        for prod in ("sigma", "alpha"):
            got = _as_dof2(getattr(bip, prod)(x, y))
            assert got == getattr(c2, prod)(_as_dof2(x), _as_dof2(y)), (prod, x, y)


@pytest.mark.parametrize("cls", CLASSES)
def test_composition_oracle_control_nonzero_a(cls):
    c1 = phase_poly_carrier(cls, Fraction(2), dof=1, max_degree=3)
    c2 = phase_poly_carrier(cls, Fraction(2), dof=2)
    bad = compose_bipartite(c1, c1, extra_a=Fraction(1))
    rng = random.Random(12)
    pairs = [
        tuple(tensor(c1, c1, c1.sample(rng), c1.sample(rng)) for _ in range(2))
        for _ in range(20)
    ]
    assert any(_as_dof2(bad.alpha(x, y)) != c2.alpha(_as_dof2(x), _as_dof2(y)) for x, y in pairs)


def test_expected_fail_report_semantics():
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 3)
    rep = falsify_nonzero_a(c, c, Fraction(1), count=60, seed=11)
    d = rep.to_dict()
    assert d["expected"] == "fail" and d["verdict"] == "pass"
