import random
from fractions import Fraction

import pytest
import sympy as sp

from compalg.algebra import sample_poly
from compalg.errors import DofMismatch
from compalg.phasepoly import (
    DEFAULT_HBAR,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    PhasePoly,
    alpha,
    hbar_zero_limit,
    nabla_power,
    poisson,
    sigma,
    star,
)
from compalg.scalars import I_COMPLEX, J_SPLIT


def to_sympy(f: PhasePoly, syms):
    expr = sp.Integer(0)
    for e, c in f.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        expr += term
    return sp.expand(expr)


def sympy_nabla(fe, ge, syms, dof):
    qs, ps = syms[:dof], syms[dof:]
    out = sp.Integer(0)
    for i in range(dof):
        out += sp.diff(fe, qs[i]) * sp.diff(ge, ps[i])
        out -= sp.diff(fe, ps[i]) * sp.diff(ge, qs[i])
    return sp.expand(out)


@pytest.mark.parametrize("dof", [1, 2])
def test_nabla_power_against_sympy(dof):
    rng = random.Random(2)
    syms = sp.symbols(f"q1:{dof+1} p1:{dof+1}")
    for _ in range(20):
        f = sample_poly(rng, dof, 3)
        g = sample_poly(rng, dof, 3)
        fe, ge = to_sympy(f, syms), to_sympy(g, syms)
        expect = sympy_nabla(fe, ge, syms, dof)
        assert to_sympy(nabla_power(f, g, 1), syms) == expect
        # second power: apply the bidifferential twice via term expansion
        expect2 = sp.Integer(0)
        qs, ps = syms[:dof], syms[dof:]
        for i in range(dof):
            for j in range(dof):
                steps_i = ((qs[i], ps[i], 1), (ps[i], qs[i], -1))
                steps_j = ((qs[j], ps[j], 1), (ps[j], qs[j], -1))
                for fa, ga, sa in steps_i:
                    for fb, gb, sb in steps_j:
                        expect2 += sa * sb * sp.diff(fe, fa, fb) * sp.diff(ge, ga, gb)
        assert to_sympy(nabla_power(f, g, 2), syms) == sp.expand(expect2)


def test_frozen_derived_values():
    q, p = PhasePoly.q(), PhasePoly.p()
    assert poisson(q, p) == PhasePoly.const(1, 1)
    assert poisson(q * q, p) == q.scale(2)
    assert nabla_power(q * q, p * p, 2) == PhasePoly.const(4, 1)
    assert nabla_power(q, p, 3) == PhasePoly(1)


def test_alpha_reduces_to_poisson_for_linear():
    q, p = PhasePoly.q(), PhasePoly.p()
    for cls in (ELLIPTIC, PARABOLIC, HYPERBOLIC):
        assert alpha(q, p, cls) == PhasePoly.const(1, 1)


def test_sigma_unital_and_symmetric():
    rng = random.Random(4)
    one = PhasePoly.const(1, 1)
    for cls in (ELLIPTIC, PARABOLIC, HYPERBOLIC):
        for _ in range(10):
            f = sample_poly(rng, 1, 4)
            g = sample_poly(rng, 1, 4)
            assert sigma(one, f, cls) == f
            assert sigma(f, g, cls) == sigma(g, f, cls)
            assert alpha(f, g, cls) == -alpha(g, f, cls)
            assert alpha(one, f, cls) == PhasePoly(1)


def test_class_series_differ_only_in_signs():
    q, p = PhasePoly.q(), PhasePoly.p()
    f, g = q * q * p, p * p * q
    ae = alpha(f, g, ELLIPTIC)
    ah = alpha(f, g, HYPERBOLIC)
    # k = 1 terms agree; k = 3 terms have opposite sign
    k1 = nabla_power(f, g, 1)
    k3 = nabla_power(f, g, 3).scale(Fraction(2) / DEFAULT_HBAR * (DEFAULT_HBAR / 2) ** 3 / 6)
    assert ae == k1 - k3
    assert ah == k1 + k3


def test_star_is_associative_in_every_class():
    rng = random.Random(6)
    for cls in (ELLIPTIC, PARABOLIC, HYPERBOLIC):
        for _ in range(8):
            f = sample_poly(rng, 1, 3)
            g = sample_poly(rng, 1, 3)
            h = sample_poly(rng, 1, 3)
            assert star(star(f, g, cls), h, cls) == star(f, star(g, h, cls), cls)


def test_star_canonical_commutator():
    q, p = PhasePoly.q(), PhasePoly.p()
    h = DEFAULT_HBAR
    diff = star(q, p, ELLIPTIC, h) - star(p, q, ELLIPTIC, h)
    assert diff == PhasePoly.const(I_COMPLEX * h, 1)
    diffh = star(q, p, HYPERBOLIC, h) - star(p, q, HYPERBOLIC, h)
    assert diffh == PhasePoly.const(J_SPLIT * h, 1)


def test_hbar_zero_limit_is_poisson():
    rng = random.Random(8)
    for _ in range(50):
        f = sample_poly(rng, 2, 4)
        g = sample_poly(rng, 2, 4)
        assert hbar_zero_limit(f, g) == poisson(f, g)
    # a pair whose k = 3 term survives at hbar = 2 but not in the limit
    q, p = PhasePoly.q(), PhasePoly.p()
    f, g = q * q * q, p * p * p
    assert alpha(f, g, ELLIPTIC, Fraction(2)) != poisson(f, g)
    assert hbar_zero_limit(f, g) == poisson(f, g)


def test_parabolic_products_are_product_and_bracket():
    # J^2 = 0 keeps only k = 0 of the even half and k = 1 of the odd half
    rng = random.Random(9)
    for dof in (1, 2):
        for _ in range(20):
            f = sample_poly(rng, dof, 4)
            g = sample_poly(rng, dof, 4)
            assert sigma(f, g, PARABOLIC) == f * g
            assert alpha(f, g, PARABOLIC) == poisson(f, g)


def test_eval_float_and_canonical_str():
    q, p = PhasePoly.q(), PhasePoly.p()
    f = q * q - p.scale(Fraction(1, 2))
    assert f.eval_float((2.0, 4.0)) == pytest.approx(2.0)
    # lexicographic by exponent vector: (0,1) before (2,0)
    assert f.canonical_str() == "-1/2 * p1^1 + 1 * q1^2"
    assert PhasePoly(1).canonical_str() == "0"


def test_degree_and_deriv():
    q, p = PhasePoly.q(1, 2), PhasePoly.p(2, 2)
    f = q * q * p
    assert f.degree == 3
    assert f.deriv(0) == (q * p).scale(2)
    assert f.deriv(3) == q * q
    assert f.deriv(1) == PhasePoly(2)


def test_dof_mismatch():
    with pytest.raises(DofMismatch):
        PhasePoly.q(1, 1) * PhasePoly.q(1, 2)
    with pytest.raises(DofMismatch):
        poisson(PhasePoly.q(1, 1), PhasePoly.q(1, 2))


def test_zero_coefficients_dropped():
    f = PhasePoly(1, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in f.terms
    assert f == PhasePoly.p().scale(2)
