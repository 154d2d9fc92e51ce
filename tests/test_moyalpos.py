import random
from fractions import Fraction

import pytest
import sympy as sp

from compalg.algebra import sample_poly
from compalg.errors import (
    ExhaustedWithoutWitness,
    NonNormalized,
    UnsupportedLevel,
)
from compalg.moyalpos import (
    FOCK_LEVELS,
    GaussPoly,
    chain_identity_check,
    elliptic_control_sweep,
    fock_wigner,
    ghost_search,
    integrate,
    lattice_points,
    poly_conj,
    positivity_functional,
    star_gp,
)
from compalg.phasepoly import ELLIPTIC, HYPERBOLIC, J_UNIT, PhasePoly
from compalg.scalars import J_SPLIT, SplitComplex

H = Fraction(2)


def sympy_gauss_integral(gp: GaussPoly):
    """Independent oracle: sympy integrates poly * exp(-(q^2+p^2)/s) over R^2."""
    q, p = sp.symbols("q p", real=True)
    poly = sp.Integer(0)
    for e, c in gp.poly.terms.items():
        poly += sp.Rational(c.numerator, c.denominator) * q ** e[0] * p ** e[1]
    s = sp.Rational(gp.s.numerator, gp.s.denominator)
    expr = poly * sp.exp(-(q**2 + p**2) / s)
    val = sp.integrate(sp.integrate(expr, (q, -sp.oo, sp.oo)), (p, -sp.oo, sp.oo))
    return sp.simplify(val / sp.pi**(gp.pi_exp + 1)) * sp.pi ** (gp.pi_exp + 1)


def test_integrate_against_sympy_oracle():
    rng = random.Random(1)
    for _ in range(10):
        f = sample_poly(rng, 1, 4)
        gp = GaussPoly(Fraction(3, 2), f, 0)
        val, pexp = integrate(gp)
        oracle = sympy_gauss_integral(gp)
        mine = sp.Rational(val.numerator, val.denominator) * sp.pi**pexp
        assert sp.simplify(oracle - mine) == 0


@pytest.mark.parametrize("m", [0, 1, 2])
def test_fock_wigner_normalized(m):
    F = fock_wigner(m, H)
    assert integrate(F) == (1, 0)


def test_fock_wigner_signs_at_origin():
    assert fock_wigner(0, H).poly.eval_float((0, 0)).real > 0
    assert fock_wigner(1, H).poly.eval_float((0, 0)).real < 0
    assert fock_wigner(2, H).poly.eval_float((0, 0)).real > 0


def test_unsupported_level():
    with pytest.raises(UnsupportedLevel):
        fock_wigner(3, H)


def test_star_gp_unitality():
    F = fock_wigner(0, H)
    one = PhasePoly.const(1, 1)
    for cls in (ELLIPTIC, HYPERBOLIC):
        for side in ("left", "right"):
            out = star_gp(F, one, side, cls, H)
            assert out.poly == F.poly and out.s == F.s


def test_star_gp_bopp_shift_oracle():
    # F star q = q F - (J hbar/2) dF/dp and q star F = q F + (J hbar/2) dF/dp,
    # for both classes, every audited level and several hbar
    q = PhasePoly.q()
    for cls in (ELLIPTIC, HYPERBOLIC):
        for side, sign in (("left", -1), ("right", 1)):
            for m in FOCK_LEVELS:
                for h in (Fraction(1, 2), H, Fraction(3)):
                    F = fock_wigner(m, h)
                    got = star_gp(F, q, side, cls, h)
                    shift = F.deriv(1).scale(J_UNIT[cls] * (sign * h / 2))
                    oracle = F.mul_poly(q).add(shift)
                    assert got.poly == oracle.poly and got.s == oracle.s


def test_star_gp_elliptic_vs_hyperbolic_sign_pattern():
    F = fock_wigner(0, H)
    g = PhasePoly.q() * PhasePoly.p()
    oute = star_gp(F, g, "left", ELLIPTIC, H)
    outh = star_gp(F, g, "left", HYPERBOLIC, H)
    # first-order contributions carry the same coefficient on i and on j;
    # second-order contributions flip sign because i*i = -1 while j*j = +1
    keys = set(oute.poly.terms) | set(outh.poly.terms)
    for e in keys:
        ce = oute.poly.terms.get(e, Fraction(0))
        ch = outh.poly.terms.get(e, Fraction(0))
        im_e = ce.im if hasattr(ce, "im") else Fraction(0)
        im_h = ch.im if hasattr(ch, "im") else Fraction(0)
        assert im_e == im_h
    ge2 = oute.poly.terms.get((1, 1), Fraction(0))
    gh2 = outh.poly.terms.get((1, 1), Fraction(0))
    re_e2 = ge2.re if hasattr(ge2, "re") else ge2
    re_h2 = gh2.re if hasattr(gh2, "re") else gh2
    assert re_e2 != re_h2


def test_vacuum_expectation_of_q_star_q():
    for h in (Fraction(1, 2), Fraction(2), Fraction(3)):
        F = fock_wigner(0, h)
        assert positivity_functional(F, PhasePoly.q(), ELLIPTIC, h) == h / 2


def test_functional_of_unit():
    for cls in (ELLIPTIC, HYPERBOLIC):
        F = fock_wigner(0, H)
        assert positivity_functional(F, PhasePoly.const(1, 1), cls, H) == 1


def test_non_normalized_rejected():
    bad = GaussPoly(H, PhasePoly.const(1, 1), 0)  # missing 1/(pi hbar)
    with pytest.raises(NonNormalized):
        positivity_functional(bad, PhasePoly.q(), ELLIPTIC, H)


def test_chain_identity_both_classes():
    rng = random.Random(2)
    F = fock_wigner(0, H)
    F1 = fock_wigner(1, H)
    for _ in range(10):
        g = sample_poly(rng, 1, 2)
        for cls in (ELLIPTIC, HYPERBOLIC):
            assert chain_identity_check(F, g, cls, H)
            assert chain_identity_check(F1, g, cls, H)


def test_ghost_witness_exact_and_reproducible():
    w1 = ghost_search(H, 2)
    w2 = ghost_search(H, 2)
    assert w1 == w2
    assert w1.value_real < 0
    # the witness value is reproduced by the functional
    F = fock_wigner(0, H)
    g = PhasePoly(1)
    q, p = PhasePoly.q(), PhasePoly.p()
    c1, c2, c3, c4, c5 = w1.coeffs
    g = (
        PhasePoly.const(c1, 1)
        + q.scale(Fraction(c2) + J_SPLIT * Fraction(c4))
        + p.scale(Fraction(c3) + J_SPLIT * Fraction(c5))
    )
    val = positivity_functional(F, g, HYPERBOLIC, H)
    real = val if isinstance(val, Fraction) else val.re
    assert real == w1.value_real


def test_known_hyperbolic_ghost():
    # g = p + jq has <g* star g> = -hbar exactly
    F = fock_wigner(0, H)
    g = PhasePoly.p() + PhasePoly.q().scale(J_SPLIT)
    val = positivity_functional(F, g, HYPERBOLIC, H)
    assert val == -H


def test_ghost_search_exhaustion():
    with pytest.raises(ExhaustedWithoutWitness):
        ghost_search(H, 0)  # only g = 0 and trivial constants on the lattice


def test_elliptic_control_small_lattice():
    assert elliptic_control_sweep(H, 1) >= 0


def test_lattice_enumeration_order():
    pts = list(lattice_points(1))
    assert len(pts) == 3**5
    assert pts[0] == (-1, -1, -1, -1, -1)
    assert pts == sorted(pts)


def test_poly_conj_split_coefficients():
    g = PhasePoly.q().scale(SplitComplex(1, 2))
    assert poly_conj(g) == PhasePoly.q().scale(SplitComplex(1, -2))
