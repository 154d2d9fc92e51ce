import random
from fractions import Fraction
from itertools import count, product
from math import factorial, gcd, prod

import pytest
import sympy as sp

from compalg import phasepoly
from compalg.algebra import sample_poly
from compalg.cli import SuiteConfig, run
from compalg.errors import DofMismatch
from compalg.phasepoly import (
    CLASSES,
    DEFAULT_HBAR,
    ELLIPTIC,
    HYPERBOLIC,
    J_SQUARED,
    J_UNIT,
    PARABOLIC,
    PhasePoly,
    alpha,
    hbar_zero_limit,
    nabla_power,
    poisson,
    series,
    sigma,
    star,
)
from compalg.scalars import I_COMPLEX, J_SPLIT, SplitComplex


def sample_rational(rng: random.Random) -> Fraction:
    """Uniform rational in [-5, 5] with denominator <= 4, drawn as sample_poly draws one."""
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-5 * den, 5 * den), den)


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


def _contractions_slow(f, g, k):
    """The pairs (d^m f, d^m' g, sign) of f (<->nabla)^k g, by recursion: one
    pair per ordering of the k contractions, every level below k derived
    afresh, and a pair with a vanishing side dropped.  The oracle the integer
    tables are held to.  The left factor only needs ``deriv`` and ``*``, so
    a Gaussian-weighted polynomial (always truthy) can stand there."""
    if k == 0:
        yield f, g, 1
        return
    n = g.dof
    for a, b, c in _contractions_slow(f, g, k - 1):
        for i in range(n):
            for a_axis, b_axis, sign in ((i, n + i, c), (n + i, i, -c)):
                db = b.deriv(b_axis)
                if db:
                    da = a.deriv(a_axis)
                    if da:
                        yield da, db, sign


@pytest.mark.parametrize("dof", [1, 2])
def test_nabla_power_matches_slow_path(dof):
    rng = random.Random(11)
    for _ in range(30):
        f = sample_poly(rng, dof, 4)
        g = sample_poly(rng, dof, 4)
        for k in range(6):
            slow = PhasePoly(dof)
            for a, b, c in _contractions_slow(f, g, k):
                slow = slow + (a * b).scale(c)
            assert nabla_power(f, g, k) == slow


def test_nabla_power_takes_no_derivative(monkeypatch):
    x = PhasePoly.q(1, 2) + PhasePoly.q(2, 2) + PhasePoly.p(1, 2) + PhasePoly.p(2, 2)
    x4 = x * x * x * x
    calls = []
    deriv = PhasePoly.deriv

    def counted(self, axis):
        calls.append(axis)
        return deriv(self, axis)

    monkeypatch.setattr(PhasePoly, "deriv", counted)
    # the product path, the plain product included, reads integer tables
    # and takes no derivative
    nabla_power(x4, x4, 4)
    assert x4 * x4 == x * x * x4 * x * x
    assert calls == []


def _reference_series(f, g, weights):
    """The Fraction ``series`` before integer numerators: each pair of
    ``_contractions_slow`` adds a * (w c b) as a PhasePoly.  The slow-path
    oracle."""
    total = None
    for k, w in enumerate(weights):
        if not w:
            continue
        for a, b, c in _contractions_slow(f, g, k):
            term = a * b.scale(w * c)
            total = term if total is None else total + term
    return f * PhasePoly(g.dof) if total is None else total


def _class_weights(cls, hbar, parity, top):
    h2 = Fraction(hbar) / 2
    return [
        J_SQUARED[cls] ** (k // 2) * h2 ** (k - parity) / factorial(k) if k % 2 == parity else 0
        for k in range(top + 1)
    ]


def _ring(c):
    """The ring of a coefficient: rational exactly when its J part is 0."""
    return Fraction if c.imag == 0 else type(c)


def _assert_same(got, want):
    assert got == want
    assert {e: type(c) for e, c in got.terms.items()} == {e: _ring(c) for e, c in want.terms.items()}


HBARS = (Fraction(1, 2), Fraction(2), Fraction(3))


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("hbar", HBARS)
def test_series_matches_fraction_reference(cls, hbar):
    """Value and coefficient type, on rational, J-scaled and mixed
    coefficients, for the class weights and for star_gp's J-valued ones."""
    rng = random.Random(31)
    j = J_UNIT[cls]
    star_weights = [(j * hbar / 2) ** k / factorial(k) if k else 1 for k in range(5)]
    for dof in (1, 2):
        for _ in range(8):
            f, g = sample_poly(rng, dof, 4), sample_poly(rng, dof, 4)
            jf = f.scale(j * sample_rational(rng))
            mixed = g + sample_poly(rng, dof, 3).scale(j * Fraction(1, 3))
            for x, y in ((f, g), (jf, g), (f, mixed), (jf, mixed), (mixed, mixed)):
                top = min(x.degree, y.degree)
                for parity, half in ((0, sigma), (1, alpha)):
                    _assert_same(half(x, y, cls, hbar), _reference_series(x, y, _class_weights(cls, hbar, parity, top)))
                _assert_same(series(x, y, star_weights), _reference_series(x, y, star_weights))


def test_warm_sigma_builds_no_fraction(monkeypatch):
    """The product series runs on integer numerators: with the class weights
    split once and the contraction tables cached, sigma does no Fraction
    arithmetic and builds no Fraction, not even for its result."""
    q1, q2, p1, p2 = PhasePoly.q(1, 2), PhasePoly.q(2, 2), PhasePoly.p(1, 2), PhasePoly.p(2, 2)
    x = q1 + p1.scale(Fraction(1, 2)) + q2.scale(Fraction(1, 3)) - p2
    f = x * x * x + (q1 * p2).scale(Fraction(2, 3))
    g = x * x * x * x - p1.scale(Fraction(1, 5))
    hbar = Fraction(3)
    sigma(f, g, ELLIPTIC, hbar)
    calls = {}

    def counted(name, wrap=lambda fn: fn):
        orig = getattr(Fraction, name)

        def fn(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, wrap(fn))

    counted("__new__", staticmethod)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__truediv__", "__pow__"):
        counted(name)
    result = sigma(f, g, ELLIPTIC, hbar)
    monkeypatch.undo()
    assert result and calls == {}
    assert result == _reference_series(f, g, _class_weights(ELLIPTIC, 3, 0, 3))


def _monomials(nvars, top):
    return [e for e in product(range(top + 1), repeat=nvars) if sum(e) <= top]


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("dof, top", [(1, 4), (2, 3)])
def test_products_match_generating_function(cls, dof, top):
    """An oracle independent of the enumerator.  For e^(a.x) and e^(b.x) every
    contraction gives a^b = sum_i a_qi b_pi - a_pi b_qi, so sigma of them is
    e^((a+b).x) sum_j mu^j (a^b)^(2j)/(2j)! and alpha the odd twin
    sum_j mu^j (a^b)^(2j+1)/(2j+1)!, mu = J^2 hbar^2/4.  The products of
    the monomials x^m, x^n are m! n! times the a^m b^n Taylor coefficient;
    every pair of degree <= top is compared."""
    hbar, n = Fraction(3), 2 * dof
    names = [f"{s}{i}" for s in "abx" for i in range(n)]
    _, *gens = sp.ring(",".join(names), sp.QQ)
    a, b, xs = gens[:n], gens[n : 2 * n], gens[2 * n :]
    mu = sp.QQ(J_SQUARED[cls] * hbar.numerator**2, 4 * hbar.denominator**2)
    wedge = sum(a[i] * b[dof + i] - a[dof + i] * b[i] for i in range(dof))
    mons = _monomials(n, top)

    def mfact(e):
        return prod(factorial(k) for k in e)

    def truncated_exp(c):
        # e^(c.x) up to degree top in c: sum_m c^m x^m / m!
        return sum(prod((ci * xi) ** k for ci, xi, k in zip(c, xs, e)) * sp.QQ(1, mfact(e)) for e in mons)

    base = truncated_exp(a) * truncated_exp(b)
    for parity, half in ((0, sigma), (1, alpha)):
        odd_even = sum(mu ** (k // 2) * wedge**k * sp.QQ(1, factorial(k)) for k in range(parity, top + 1, 2))
        want = {}
        for exps, coeff in (base * odd_even).items():
            m, mm, x = exps[:n], exps[n : 2 * n], exps[2 * n :]
            if sum(m) <= top and sum(mm) <= top:
                v = Fraction(int(coeff.numerator), int(coeff.denominator))
                want.setdefault((m, mm), {})[x] = v * mfact(m) * mfact(mm)
        assert want
        for m in mons:
            for mm in mons:
                got = half(PhasePoly(dof, {m: Fraction(1)}), PhasePoly(dof, {mm: Fraction(1)}), cls, hbar)
                assert got == PhasePoly(dof, want.get((m, mm), {})), (half.__name__, m, mm)


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


def _reference_star(f, g, cls, hbar):
    """star built from its halves, sigma + (J hbar/2) alpha: the oracle of the
    one contraction over J-valued weights."""
    return sigma(f, g, cls, hbar) + alpha(f, g, cls, hbar).scale(J_UNIT[cls] * (Fraction(hbar) / 2))


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("hbar", HBARS)
def test_star_matches_its_halves(cls, hbar):
    """Same canonical pair and coefficient types as sigma + (J hbar/2) alpha,
    on seeded dof-1 and dof-2 pairs, rational, J-scaled and mixed."""
    rng = random.Random(19)
    j = J_UNIT[cls]
    for dof in (1, 2):
        for _ in range(6):
            f, g = sample_poly(rng, dof, 4), sample_poly(rng, dof, 4)
            jf = f.scale(j * sample_rational(rng))
            mixed = g + sample_poly(rng, dof, 3).scale(j * Fraction(1, 3))
            for x, y in ((f, g), (jf, g), (f, mixed), (g, jf), (jf, mixed), (mixed, mixed)):
                got, want = star(x, y, cls, hbar), _reference_star(x, y, cls, hbar)
                assert (got.dof, got.den, got.nums) == (want.dof, want.den, want.nums), (x, y)
                assert {e: type(n) for e, n in got.nums.items()} == {e: type(n) for e, n in want.nums.items()}
                assert {e: type(c) for e, c in got.terms.items()} == {e: type(c) for e, c in want.terms.items()}


def test_star_is_one_contraction(monkeypatch):
    """star walks the monomial pairs once, not once per half."""
    f, g = PhasePoly.q() * PhasePoly.p() + PhasePoly.p(), PhasePoly.q() * PhasePoly.q()
    calls = []

    def counted(*args):
        calls.append(args)
        return contract(*args)

    contract = phasepoly._contract
    monkeypatch.setattr(phasepoly, "_contract", counted)
    for cls in CLASSES:
        star(f, g, cls, Fraction(3))
    assert len(calls) == len(CLASSES)


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


_right_series = phasepoly._series


def _times_half_hbar(f, g, cls, hbar, parity):
    # every term carries one extra power of hbar
    return _right_series(f, g, cls, hbar, parity).scale(Fraction(hbar) / 2)


def _high_terms_squared_hbar(f, g, cls, hbar, parity):
    # odd half whose k >= 3 terms carry (hbar/2)^(2k-2) instead of
    # (hbar/2)^(k-1); all of them vanish at hbar = 0
    out, h2 = nabla_power(f, g, 1), Fraction(hbar) / 2
    for k in range(3, min(f.degree, g.degree) + 1, 2):
        c = J_SQUARED[cls] ** (k // 2) * h2 ** (2 * k - 2) / factorial(k)
        out = out + nabla_power(f, g, k).scale(c)
    return out


WRONG_HBAR_POWERS = [_times_half_hbar, _high_terms_squared_hbar]


@pytest.mark.parametrize("wrong", WRONG_HBAR_POWERS)
def test_hbar_zero_limit_fails_on_wrong_hbar_power(monkeypatch, wrong):
    monkeypatch.setattr(phasepoly, "_series", wrong)
    rng = random.Random(8)
    pairs = [(sample_poly(rng, 2, 4), sample_poly(rng, 2, 4)) for _ in range(50)]
    assert any(hbar_zero_limit(f, g) != poisson(f, g) for f, g in pairs)
    q, p = PhasePoly.q(), PhasePoly.p()
    assert hbar_zero_limit(q * q * q, p * p * p) != poisson(q * q * q, p * p * p)


@pytest.mark.parametrize("wrong", WRONG_HBAR_POWERS)
def test_deformation_suite_fails_on_wrong_hbar_power(monkeypatch, wrong):
    cfg = SuiteConfig(suites=["deformation-limit"], pair_count=20)
    assert run(cfg)["suites"][0]["verdict"] == "pass"
    monkeypatch.setattr(phasepoly, "_series", wrong)
    (suite,) = run(cfg)["suites"]
    assert suite["verdict"] == "fail" and suite["failures"]


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


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        PhasePoly(1, {(1, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        PhasePoly(2, {(1, 0): Fraction(1)})
    f = PhasePoly(1, {(1, 0): Fraction(0), (0, 1): J_SPLIT * 0, (1, 1): Fraction(3)})
    assert f.terms == {(1, 1): Fraction(3)}


@pytest.mark.parametrize("cls", CLASSES)
def test_trusted_results_pass_the_public_checks(cls):
    """deriv and series skip the constructor's checks; their terms are already
    zero-free exponent tuples of length 2*dof, so re-checking changes nothing."""
    rng = random.Random(31)
    for dof in (1, 2):
        for _ in range(20):
            f, g = sample_poly(rng, dof, 4), sample_poly(rng, dof, 4)
            results = [f.deriv(axis) for axis in range(2 * dof)]
            results += [sigma(f, g, cls), alpha(f, g, cls), poisson(f, g), f.scale(J_UNIT[cls]).deriv(0)]
            for r in results:
                assert r == PhasePoly(dof, r.terms) and r.terms == PhasePoly(dof, r.terms).terms
                assert all(type(e) is tuple and len(e) == 2 * dof for e in r.terms)
                assert all(c != 0 for c in r.terms.values())


def _level_sums(f, g):
    """sum c a b over each level of ``_contractions_slow``, up to the first empty one."""
    out = []
    for k in count():
        level = list(_contractions_slow(f, g, k))
        if not level:
            return out
        total = PhasePoly(g.dof)
        for a, b, c in level:
            total = total + (a * b).scale(c)
        out.append(total)


def _assert_tables_match_slow(dof, pairs):
    for m, mm in pairs:
        f, g = PhasePoly(dof, {m: 1}), PhasePoly(dof, {mm: 1})
        slow = _level_sums(f, g)
        # one level past the enumerator's end, which the tables must leave empty too
        assert [nabla_power(f, g, k) for k in range(len(slow) + 1)] == slow + [PhasePoly(dof)], (m, mm)


@pytest.mark.parametrize("dof, top", [(1, 4), (2, 3)])
def test_tables_match_contractions_on_every_monomial_pair(dof, top):
    """The per-dof integer tables, combined by the multinomial, give every
    level of the recursive enumerator, on every monomial pair up to degree top."""
    mons = _monomials(2 * dof, top)
    _assert_tables_match_slow(dof, product(mons, mons))


def test_tables_match_contractions_on_seeded_dof3_pairs():
    rng = random.Random(41)
    mons = _monomials(6, 3)
    _assert_tables_match_slow(3, [(rng.choice(mons), rng.choice(mons)) for _ in range(150)])


def _assert_canonical(f):
    """den > 0, no zero numerator, ints or den-1 J-scalars with a nonzero J
    part, and den coprime to every integer part."""
    parts = []
    for n in f.nums.values():
        assert n
        if isinstance(n, int):
            parts.append(n)
        else:
            assert n.imag != 0 and n.real.denominator == n.imag.denominator == 1, n
            parts += [n.real.numerator, n.imag.numerator]
    assert f.den > 0 and gcd(f.den, *parts) == 1, (f.den, f.nums)


def test_equal_values_give_equal_pairs_and_hashes():
    q, p = PhasePoly.q(), PhasePoly.p()
    ways = [
        (q * p).scale(Fraction(1, 2)),
        q.scale(Fraction(2, 3)) * p.scale(Fraction(3, 4)),
        (q * p).scale(Fraction(1, 6)) + (q * p).scale(Fraction(1, 3)),
        PhasePoly(1, {(1, 1): Fraction(3, 6)}),
        (q * q * p).deriv(0).scale(Fraction(1, 4)),
        poisson(q * q * p, p).scale(Fraction(1, 4)),
    ]
    for f in ways:
        _assert_canonical(f)
        assert (f.den, f.nums) == (2, {(1, 1): 1}) and f == ways[0] and hash(f) == hash(ways[0])
    assert len(set(ways)) == 1
    # a J-valued coefficient with J part 0 is its Fraction: same pair, same hash
    for cls in CLASSES:
        j = J_UNIT[cls]
        real = [
            PhasePoly.const(j * 0 + Fraction(3, 2), 1),
            PhasePoly.const(1, 1).scale(Fraction(3, 2) + 0 * j),
            PhasePoly.const(j, 1) + PhasePoly.const(Fraction(3, 2) - j, 1),
            PhasePoly.const(Fraction(3, 2), 1),
        ]
        for f in real:
            _assert_canonical(f)
            assert (f.den, f.nums) == (2, {(0, 0): 3}) and f == real[-1] and hash(f) == hash(real[-1])
            assert type(f.terms[(0, 0)]) is Fraction
        z = PhasePoly.const(j * Fraction(2, 3) + 1, 1)
        _assert_canonical(z)
        assert z.den == 3 and z.terms == {(0, 0): j * Fraction(2, 3) + 1}
        assert not z - z
    rng = random.Random(42)
    for _ in range(40):
        f, g = sample_poly(rng, 1, 4), sample_poly(rng, 1, 4)
        for cls in CLASSES:
            for r in (sigma(f, g, cls), alpha(f, g, cls), star(f, g, cls), f.scale(J_UNIT[cls]) * g - f):
                _assert_canonical(r)
                assert r == PhasePoly(1, r.terms) and hash(r) == hash(PhasePoly(1, r.terms))
    assert PhasePoly.const(SplitComplex(3, 0), 1) == PhasePoly.const(3, 1)
