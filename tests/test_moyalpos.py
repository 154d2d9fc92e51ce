import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
import sympy as sp

from compalg.algebra import sample_poly
from compalg.errors import (
    DofMismatch,
    ExhaustedWithoutWitness,
    NonNormalized,
    UnsupportedLevel,
)
from compalg.moyalpos import (
    FOCK_LEVELS,
    GaussPoly,
    _gram,
    _lattice_chunks,
    _lattice_form,
    elliptic_control_sweep,
    fock_wigner,
    ghost_search,
    integrate,
    lattice_points,
    poly_conj,
    positivity_functional,
    star_gp,
)
from compalg.phasepoly import CLASSES, ELLIPTIC, HYPERBOLIC, J_UNIT, PhasePoly
from compalg.scalars import J_SPLIT, SplitComplex
from test_phasepoly import _contractions_slow

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


def _double_factorial_odd(m: int) -> int:
    # (2m-1)!! = (2m)! / (2^m m!)
    return factorial(2 * m) // (2**m * factorial(m))


def _moment(k: int, s: Fraction) -> Fraction:
    """integral x^k exp(-x^2/s) dx divided by sqrt(pi s); zero for odd k."""
    if k % 2:
        return Fraction(0)
    m = k // 2
    return _double_factorial_odd(m) * (s / 2) ** m


def _reference_integrate(gp: GaussPoly):
    """The per-term Fraction loop the moment pairing replaced, kept as its
    oracle: each coefficient times the product of its variables' moments."""
    n = gp.dof
    total = Fraction(0)
    for e, c in gp.poly.terms.items():
        m = Fraction(1)
        for k in e:
            m *= _moment(k, gp.s)
            if m == 0:
                break
        if m:
            total = total + c * (m * gp.s**n)
    return total, gp.pi_exp + n


def _gauss_cases():
    """(F, h) pairs: dof 1 and 2, widths 1/2 to 3, pi powers -1 and 0, with
    rational, J-valued (every class) and mixed coefficients, odd-degree terms
    and polynomials whose integral is 0."""
    rng = random.Random(19)
    for dof in (1, 2):
        q, p = PhasePoly.q(1, dof), PhasePoly.p(1, dof)
        for s in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
            for pi_exp in (-1, 0):
                for cls in CLASSES:
                    j = J_UNIT[cls]
                    f, h = sample_poly(rng, dof, 4), sample_poly(rng, dof, 4)
                    jf = f.scale(j * Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                    mixed = h + sample_poly(rng, dof, 3).scale(j * Fraction(1, 3))
                    odd = q + (p * p * q).scale(j) + (q * p).scale(Fraction(2, 3))
                    for x in (f, jf, mixed, odd, PhasePoly(dof)):
                        for y in (h, mixed, odd, PhasePoly.const(j, dof)):
                            yield GaussPoly(s, x, pi_exp), y


def test_integrate_matches_reference_loop():
    """Value, type and pi power of integrate(F) as the per-term loop gives
    them, and the pairing integrate(F, h) as the loop on the product F h."""
    zeros = 0
    for F, h in _gauss_cases():
        got, want = integrate(F), _reference_integrate(F)
        assert got == want and type(got[0]) is type(want[0]), (F.poly, F.s, F.pi_exp)
        got, want = integrate(F, h), _reference_integrate(F * h)
        assert got == want, (F.poly, h, F.s, F.pi_exp)
        zeros += want[0] == 0
    assert zeros > 0


def test_integrate_pairs_only_matching_dof():
    with pytest.raises(DofMismatch):
        integrate(fock_wigner(0, H), PhasePoly.q(1, 2))


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
                    dF = F.deriv(1)
                    shift = GaussPoly(dF.s, dF.poly.scale(J_UNIT[cls] * (sign * h / 2)), dF.pi_exp)
                    oracle = F * q + shift
                    assert got.poly == oracle.poly and got.s == oracle.s


def _star_gp_slow(F, g, side, cls, hbar):
    """sum_k (+-J hbar/2)^k/k! sum c a b over the pairs of
    ``_contractions_slow(F, g, k)``, the Gaussian factor on the left."""
    jh2 = J_UNIT[cls] * (Fraction(hbar) / 2) * (1 if side == "left" else -1)
    total = F * g
    for k in range(1, g.degree + 1):
        for a, b, c in _contractions_slow(F, g, k):
            total = total + a * b.scale(jh2**k / factorial(k) * c)
    return total


@pytest.mark.parametrize("cls", (ELLIPTIC, HYPERBOLIC))
@pytest.mark.parametrize("side", ("left", "right"))
def test_star_gp_matches_slow_contractions(cls, side):
    """The per-dof closed form against one pair per ordering of the
    contractions, on seeded g of degree <= 3, rational and J-valued."""
    rng = random.Random(51)
    for m in FOCK_LEVELS:
        for h in (Fraction(1, 2), H, Fraction(3)):
            F = fock_wigner(m, h)
            for _ in range(3):
                g = sample_poly(rng, 1, 3)
                for gg in (g, g + sample_poly(rng, 1, 2).scale(J_UNIT[cls] * Fraction(1, 3))):
                    got, want = star_gp(F, gg, side, cls, h), _star_gp_slow(F, gg, side, cls, h)
                    assert (got.poly, got.s, got.pi_exp) == (want.poly, want.s, want.pi_exp), (m, h, gg)


def test_star_gp_needs_one_degree_of_freedom():
    F2 = GaussPoly(H, PhasePoly.const(1, 2))
    with pytest.raises(ValueError, match="one degree of freedom"):
        star_gp(F2, PhasePoly.q(1, 2))
    with pytest.raises(ValueError, match="one degree of freedom"):
        star_gp(fock_wigner(0, H), PhasePoly.q(1, 2))


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
        assert ce.imag == ch.imag
    ge2 = oute.poly.terms.get((1, 1), Fraction(0))
    gh2 = outh.poly.terms.get((1, 1), Fraction(0))
    assert ge2.real != gh2.real


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
    assert val.real == w1.value_real


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
    # one denominator over rational and J-valued terms: (3 + (1-2j) q + j p/2)/6
    q, p = PhasePoly.q(), PhasePoly.p()
    mixed = PhasePoly.const(Fraction(1, 2), 1) + q.scale(SplitComplex(1, -2) / 6) + p.scale(J_SPLIT / 12)
    assert mixed.den == 12
    bar = PhasePoly.const(Fraction(1, 2), 1) + q.scale(SplitComplex(1, 2) / 6) - p.scale(J_SPLIT / 12)
    assert poly_conj(mixed) == bar
    assert poly_conj(bar) == mixed


HBARS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
# first lexicographic hyperbolic ghost at lattice bound 2, per hbar
GHOST_TABLE = {
    Fraction(1, 2): ((-1, -2, -2, -2, 1), Fraction(-5, 4)),
    Fraction(1): ((-2, -2, -2, -2, 1), Fraction(-1, 2)),
    Fraction(2): ((-2, -2, -2, -2, 1), Fraction(-5)),
    Fraction(3): ((-2, -2, -2, -2, 0), Fraction(-2)),
}


def _lattice_poly(c, unit):
    c1, c2, c3, c4, c5 = (Fraction(x) for x in c)
    q, p = PhasePoly.q(), PhasePoly.p()
    return PhasePoly.const(c1, 1) + q.scale(c2 + unit * c4) + p.scale(c3 + unit * c5)


def _form(N, c) -> int:
    """sum_ab c_a c_b N_ab at one lattice point, 25 integer multiply-adds: the
    per-point evaluation the lattice walk replaced, kept as its oracle."""
    return sum(ca * sum(n * cb for n, cb in zip(row, c)) for ca, row in zip(c, N))


def test_gram_form_matches_functional_oracle():
    # the functional pairs the whole g* star g at each point, independent of
    # the expansion over the basis {1, q, p} and of the integer lattice form
    rng = random.Random(5)
    for cls in (ELLIPTIC, HYPERBOLIC):
        for m in FOCK_LEVELS:
            for h in (Fraction(1, 2), H, Fraction(3)):
                F = fock_wigner(m, h)
                N, D = _lattice_form(_gram(F, cls, h), cls)
                for c in rng.sample(list(lattice_points(2)), 10):
                    val = positivity_functional(F, _lattice_poly(c, J_UNIT[cls]), cls, h)
                    assert Fraction(_form(N, c), D) == val.real, (cls, m, h, c)


@pytest.mark.parametrize("h", HBARS)
def test_ghost_table_and_elliptic_minimum(h):
    coeffs, value = GHOST_TABLE[h]
    w = ghost_search(h, 2)
    assert (w.coeffs, w.value_real) == (coeffs, value)
    assert w.canonical == _lattice_poly(coeffs, J_SPLIT).canonical_str()
    assert w.evaluated == list(lattice_points(2)).index(coeffs) + 1
    assert elliptic_control_sweep(h, 2) == 0


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_gram_builds_no_weighted_product(monkeypatch):
    """Every entry of the Gram matrix and of the functional is one pairing,
    so on level 1 (no chain check) no GaussPoly product F (g* star g) is
    built by either."""
    level1 = fock_wigner(1, H)
    products = _count_calls(monkeypatch, GaussPoly, "__mul__")
    _gram(level1, ELLIPTIC, H)
    positivity_functional(level1, PhasePoly.q() + PhasePoly.p().scale(J_UNIT[ELLIPTIC]), ELLIPTIC, H)
    positivity_functional(level1, PhasePoly.p() + PhasePoly.q().scale(J_SPLIT), HYPERBOLIC, H)
    assert products == []


def test_gram_chain_equality_can_fail():
    # the ground state of hbar = 2 is not star-idempotent at hbar = 3
    with pytest.raises(AssertionError, match="chain equality"):
        _gram(fock_wigner(0, H), ELLIPTIC, Fraction(3))
    with pytest.raises(AssertionError, match="chain equality failed"):
        positivity_functional(fock_wigner(0, H), PhasePoly.q(), ELLIPTIC, Fraction(3))


def test_gram_rejects_unnormalized_state():
    bad = GaussPoly(H, PhasePoly.const(1, 1), 0)
    with pytest.raises(NonNormalized):
        _gram(bad, ELLIPTIC, H)


def _principal_minors(G):
    """All 7 principal minors of a 3x3 Hermitian matrix, in the order
    G00, G11, G22, {01}, {02}, {12}, det; each must be real."""
    out = []
    for size in (1, 2, 3):
        for idx in combinations(range(3), size):
            det = Fraction(0)
            for perm in permutations(range(size)):
                sign = (-1) ** sum(perm[a] > perm[b] for a, b in combinations(range(size), 2))
                term = Fraction(sign)
                for a, b in enumerate(perm):
                    term = term * G[idx[a]][idx[b]]
                det = det + term
            assert det.imag == 0
            out.append(det.real)
    return out


def test_elliptic_gram_psd_certificate():
    # Sylvester: all principal minors >= 0 proves positivity on all of C^3
    for m in FOCK_LEVELS:
        for h in HBARS:
            assert min(_principal_minors(_gram(fock_wigner(m, h), ELLIPTIC, h))) >= 0
    assert _principal_minors(_gram(fock_wigner(0, H), ELLIPTIC, H)) == [1, 1, 1, 1, 1, 0, 0]
    assert _principal_minors(_gram(fock_wigner(1, H), ELLIPTIC, H)) == [1, 3, 3, 3, 3, 8, 8]
    # control: a level-1 state of width hbar = 1/2 probed at hbar = 3 breaks
    # the uncertainty bound, and the {q, p} minor turns negative
    minors = _principal_minors(_gram(fock_wigner(1, Fraction(1, 2)), ELLIPTIC, Fraction(3)))
    assert minors[5] == Fraction(9, 16) - Fraction(9, 4)


def _walk_cases():
    """(name, N) for the lattice forms of the sweeps and a non-symmetric N."""
    for h in (Fraction(1, 2), H, Fraction(3)):
        for m in (0, 1):
            yield f"elliptic-{m}-{h}", _lattice_form(_gram(fock_wigner(m, h), ELLIPTIC, h), ELLIPTIC)[0]
        yield f"hyperbolic-{h}", _lattice_form(_gram(fock_wigner(0, h), HYPERBOLIC, h), HYPERBOLIC)[0]
    rng = random.Random(30)
    yield "non-symmetric", [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]


def _lattice_values(N, bound):
    """The values of ``_lattice_chunks`` one by one, as Python ints."""
    return [v for chunk in _lattice_chunks(N, bound) for v in chunk.tolist()]


def test_lattice_walk_matches_per_point_form():
    """The prefix walk gives the per-point form at every point, in lattice order."""
    for name, N in _walk_cases():
        for bound in (0, 1, 2, 3):
            want = [_form(N, c) for c in lattice_points(bound)]
            assert _lattice_values(N, bound) == want, (name, bound)
    # a negative bound is an empty lattice, as lattice_points makes it
    assert _lattice_values([[1] * 5] * 5, -1) == []


def test_lattice_values_beyond_int64_match_per_point_form():
    # entries near 2**61: every value is exact only as a Python int, and
    # int64 arithmetic would wrap silently at these bounds
    rng = random.Random(31)
    N = [[rng.choice((-1, 1)) * (2**61 + rng.randint(0, 2**40)) for _ in range(5)] for _ in range(5)]
    for bound in (1, 2):
        want = [_form(N, c) for c in lattice_points(bound)]
        assert max(abs(v) for v in want) > 2**63
        got = _lattice_values(N, bound)
        assert got == want
        assert all(type(v) is int for v in got)
    # the same form scaled down stays on int64 and agrees as well
    small = [[x >> 40 for x in row] for row in N]
    chunks = list(_lattice_chunks(small, 2))
    assert len(chunks) == 5 and all(c.dtype == np.int64 and c.size == 5**4 for c in chunks)
    assert [v for c in chunks for v in c.tolist()] == [_form(small, c) for c in lattice_points(2)]
    assert list(_lattice_chunks(N, 2))[0].dtype == object


@pytest.mark.parametrize("h", HBARS)
@pytest.mark.parametrize("bound", (2, 3))
def test_ghost_search_decodes_point_and_count(h, bound):
    w = ghost_search(h, bound)
    points = list(lattice_points(bound))
    assert w.evaluated == points.index(w.coeffs) + 1
    assert all(type(c) is int for c in w.coeffs)
    assert type(w.value_real.numerator) is int and type(w.value_real.denominator) is int
    # the witness is the first negative value of the per-point form
    N, D = _lattice_form(_gram(fock_wigner(0, h), HYPERBOLIC, h), HYPERBOLIC)
    values = [_form(N, c) for c in points[: w.evaluated]]
    assert all(v >= 0 for v in values[:-1]) and Fraction(values[-1], D) == w.value_real
