import dataclasses
import random
from fractions import Fraction
from itertools import chain
from math import gcd

import numpy as np
import pytest

from compalg import algebra, cli
from compalg.algebra import (
    IDENTITIES,
    beta_product,
    check_all_identities,
    check_identity,
    check_monoid,
    compose_bipartite,
    falsify_nonzero_a,
    falsify_sweep,
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


def test_identity_order_is_pinned():
    # check_all_identities seeds identity k with seed + k, so this order fixes every report
    assert IDENTITIES == (
        "leibniz-sigma", "leibniz-alpha", "jacobi", "jordan", "compatibility",
        "skew-alpha", "sym-sigma", "unitality", "relationality",
    )
    assert set(IDENTITIES) == set(algebra.IDENTITY_ARITY)


def test_identity_report_shape():
    carrier = phase_poly_carrier(PARABOLIC)
    rep = check_identity(carrier, "jacobi", count=5, seed=0)
    assert rep.passed and rep.samples == 5 and rep.expected == "pass"
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
    const_sampler = lambda rng: PhasePoly.const(Fraction(rng.randint(1, 5)), 1)
    weak = dataclasses.replace(c, sample=const_sampler)
    with pytest.raises(UnexpectedPass):
        falsify_nonzero_a(weak, weak, Fraction(1), count=10, seed=9)


def test_falsify_suite_expands_each_factor_pair_once(monkeypatch):
    """The four falsify-nonzero-a composites (a = 1, -1, 1/2, 0) share their
    factor carrier's expansion table: at seed 0 each (product, key pair) is
    filled once, 776 fills, where one table per composite made 3,104."""
    build = algebra.phase_poly_carrier
    fills = []

    def counted(*args, **kwargs):
        c = build(*args, **kwargs)

        def wrap(name, prod):
            def run(x, y):
                fills.append((name, x, y))
                return prod(x, y)

            return run

        return dataclasses.replace(c, sigma=wrap("sigma", c.sigma), alpha=wrap("alpha", c.alpha))

    monkeypatch.setattr(algebra, "phase_poly_carrier", counted)
    suite = cli._suite_falsify_a(cli.parse_config(""), 0)
    assert suite["verdict"] == "pass"
    assert len(fills) == len(set(fills)) == 776


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
    # a composite element is canonical: zero is (1, {}), and equal values
    # built two ways are equal pairs
    q, p = PhasePoly.q(1, 2), PhasePoly.p(2, 2)
    t = tensor(c, c, q.scale(Fraction(1, 2)), p + q.scale(Fraction(2, 3)))
    assert bip.add(t, bip.scale(t, Fraction(-1))) == (1, {})
    assert bip.scale(t, Fraction(0)) == (1, {})
    u = tensor(c, c, q.scale(Fraction(3, 2)), p.scale(Fraction(1, 3)) + q.scale(Fraction(2, 9)))
    assert t == u and t[0] == 6 and bip.add(t, t) == bip.scale(t, Fraction(2))


def _with_extra_a(a, b, extra_a):
    """compose_bipartite(a, b) whose skew product carries the forbidden
    extra_a * alpha1 alpha2 term, so the a = 0 law can be falsified."""
    law = [(a.alpha, b.sigma, 1), (a.sigma, b.alpha, 1), (a.alpha, b.alpha, extra_a)]
    return dataclasses.replace(
        compose_bipartite(a, b), alpha=algebra._product(law, algebra._expander(a), algebra._expander(b))
    )


def _decomposed_residual(carrier, x) -> float:
    """The residual through ``decompose``: one value per coefficient, then the max."""
    return max(map(algebra._magnitude, carrier.decompose(x).values()), default=0.0)


def test_composite_residual_matches_decompose_path():
    """max |numerator| / den, one int true division, is bit for bit the float
    of the largest decomposed coefficient, on exact, nested and float composites."""
    c = phase_poly_carrier(ELLIPTIC, Fraction(1, 2), 1, 3)
    bip = _with_extra_a(c, c, Fraction(1, 3))
    nested = compose_bipartite(bip, c)
    m = matrix_carrier(2, Fraction(1))
    fbip = compose_bipartite(m, m)
    fnested = compose_bipartite(fbip, m)
    rng = random.Random(28)
    for carrier in (bip, nested, fbip, fnested):
        elems = [carrier.unit] + [carrier.sample(rng) for _ in range(3)]
        elems += [carrier.alpha(x, y) for x in elems[1:] for y in elems[1:]]
        elems += [carrier.sub(elems[1], elems[1]), carrier.scale(elems[-1], Fraction(-7, 3))]
        for x in elems:
            r = carrier.residual(x)
            assert type(r) is float and r == _decomposed_residual(carrier, x), (carrier.name, x)
    assert bip.residual(bip.sub(bip.unit, bip.unit)) == 0.0
    # 2**53 + 1 has no float, so float(n) / den would round twice and miss by one ulp
    x = (7, {((0, 0), (0, 0)): 2**53 + 1, ((1, 0), (0, 0)): -5})
    assert bip.residual(x) == _decomposed_residual(bip, x) != float(2**53 + 1) / 7


def _as_dof2(bip, x) -> PhasePoly:
    """A composite of dof-1 factors as a dof-2 poly: ((q1, p1), (q2, p2)) -> (q1, q2, p1, p2)."""
    return PhasePoly(2, {(q1, q2, p1, p2): v for ((q1, p1), (q2, p2)), v in bip.decompose(x).items()})


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
            got = _as_dof2(bip, getattr(bip, prod)(x, y))
            assert got == getattr(c2, prod)(_as_dof2(bip, x), _as_dof2(bip, y)), (prod, x, y)


@pytest.mark.parametrize("cls", CLASSES)
def test_composition_oracle_control_nonzero_a(cls):
    c1 = phase_poly_carrier(cls, Fraction(2), dof=1, max_degree=3)
    c2 = phase_poly_carrier(cls, Fraction(2), dof=2)
    bad = _with_extra_a(c1, c1, Fraction(1))
    rng = random.Random(12)
    pairs = [
        tuple(tensor(c1, c1, c1.sample(rng), c1.sample(rng)) for _ in range(2))
        for _ in range(20)
    ]
    assert any(
        _as_dof2(bad, bad.alpha(x, y)) != c2.alpha(_as_dof2(bad, x), _as_dof2(bad, y)) for x, y in pairs
    )


def test_expected_fail_report_semantics():
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 3)
    rep = falsify_nonzero_a(c, c, Fraction(1), count=60, seed=11)
    assert rep.expected == "fail" and rep.failures and rep.passed


def _reference_falsify(c, extra_a, count, seed):
    """One Leibniz-alpha sweep per a through check_identity on the composite
    with the extra term: the slow-path oracle of falsify_sweep."""
    rep = check_identity(_with_extra_a(c, c, extra_a), "leibniz-alpha", count, seed)
    rep.expected = "fail" if extra_a else "pass"
    return rep


FALSIFY_EXTRAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(0), Fraction(2))


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("hbar", HBARS)
def test_falsify_sweep_matches_per_a_sweeps(cls, hbar):
    """D(a) = D_0 + a D_1 + a^2 D_2 gives each a's failures (sample, residual,
    witness), max_residual and samples exactly."""
    c = phase_poly_carrier(cls, hbar, 1, 3)
    for seed in (3, 12, 29):
        got = falsify_sweep(c, c, FALSIFY_EXTRAS, count=6, seed=seed)
        for x, rep in zip(FALSIFY_EXTRAS, got, strict=True):
            want = _reference_falsify(c, x, 6, seed)
            assert (rep.failures, rep.max_residual, rep.samples) == (
                want.failures, want.max_residual, want.samples), (seed, x)
            assert (rep.identity, rep.carrier, rep.expected) == (want.identity, want.carrier, want.expected)


def test_falsify_sweep_draws_each_triple_once(monkeypatch):
    """One sweep for a = 1, -1, 1/2, 0 at 50 samples makes 900 composite
    product calls (6 inner and 12 outer per triple); one sweep per a makes 1,200."""
    calls = []
    product = algebra._product

    def counted(*args):
        run = product(*args)

        def wrapped(x, y):
            calls.append(1)
            return run(x, y)

        return wrapped

    monkeypatch.setattr(algebra, "_product", counted)
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), 1, 3)
    extras = FALSIFY_EXTRAS[:4]
    got = falsify_sweep(c, c, extras, count=50, seed=3)
    assert len(calls) == 900
    calls.clear()
    want = [_reference_falsify(c, x, 50, 3) for x in extras]
    assert len(calls) == 1200
    assert [r.failures for r in got] == [r.failures for r in want]


def _reference_product(a, b, prod, extra_a=Fraction(0)):
    """The Fraction loop of compose_bipartite before integer numerators, on
    {(left key, right key): Fraction} dicts: the slow-path oracle."""
    xcoef = Fraction(a.jsquared) * a.hbar * a.hbar / 4
    law = {
        "sigma": [(a.sigma, b.sigma, 1), (a.alpha, b.alpha, xcoef)],
        "alpha": [(a.alpha, b.sigma, 1), (a.sigma, b.alpha, 1), (a.alpha, b.alpha, extra_a)],
    }[prod]
    law = [(pa, pb, w) for pa, pb, w in law if w]
    memo = {}

    def expand(c, p, k1, k2):
        key = (p, k1, k2)
        if key not in memo:
            memo[key] = c.decompose(p(c.basis(k1), c.basis(k2)))
        return memo[key]

    def run(x, y):
        out = {}
        for (l1, r1), w1 in x.items():
            for (l2, r2), w2 in y.items():
                w12 = w1 * w2
                for pa, pb, w in law:
                    dr = expand(b, pb, r1, r2)
                    for kl, cl in expand(a, pa, l1, l2).items():
                        wl = w * w12 * cl
                        for kr, cr in dr.items():
                            k = (kl, kr)
                            out[k] = out.get(k, 0) + wl * cr
        return {k: v for k, v in out.items() if v}

    return run


def _assert_matches_reference(bip, ref, elems):
    for prod in ("sigma", "alpha"):
        for x in elems:
            for y in elems:
                den, nums = result = getattr(bip, prod)(x, y)
                assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values()), result
                got = bip.decompose(result)
                assert got == ref[prod](bip.decompose(x), bip.decompose(y)), (prod, x, y)
                assert all(type(v) is Fraction for v in got.values()), (prod, got)


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("hbar", (Fraction(1, 2), Fraction(1), Fraction(2)))
@pytest.mark.parametrize("extra_a", (Fraction(0), Fraction(1), Fraction(-1, 2)))
def test_composite_product_matches_fraction_loop(cls, hbar, extra_a):
    """Integer numerators over one denominator give exactly the Fraction loop's
    coefficients; hbar = 1/2 makes the law weight mu = -1/16 non-integer."""
    c = phase_poly_carrier(cls, hbar, dof=1, max_degree=3)
    bip = _with_extra_a(c, c, extra_a)
    ref = {prod: _reference_product(c, c, prod, extra_a) for prod in ("sigma", "alpha")}
    rng = random.Random(21)
    _assert_matches_reference(bip, ref, [bip.unit] + [bip.sample(rng) for _ in range(3)])


def test_nested_composite_product_matches_fraction_loop():
    c = phase_poly_carrier(HYPERBOLIC, Fraction(1, 2), dof=1, max_degree=2)
    bip = compose_bipartite(c, c)
    nested = compose_bipartite(bip, c)
    # the dict-valued composite that the reference products act on
    ref_bip = dataclasses.replace(
        bip,
        sigma=_reference_product(c, c, "sigma"),
        alpha=_reference_product(c, c, "alpha"),
        decompose=lambda x: x,
        basis=lambda k: {k: 1},
    )
    ref = {prod: _reference_product(ref_bip, c, prod) for prod in ("sigma", "alpha")}
    rng = random.Random(22)
    _assert_matches_reference(nested, ref, [nested.unit] + [nested.sample(rng) for _ in range(2)])


def test_composite_product_makes_one_fraction_per_coefficient(monkeypatch):
    """With the memo tables warm, a product does no Fraction arithmetic and
    builds no Fraction; decompose builds one per output coefficient."""
    c = phase_poly_carrier(ELLIPTIC, Fraction(2), dof=1, max_degree=3)
    bip = _with_extra_a(c, c, Fraction(1))
    rng = random.Random(23)
    x, y = bip.sample(rng), bip.sample(rng)
    bip.alpha(x, y)  # fills the memo tables
    calls = {}

    def counted(name, wrap=lambda f: f):
        orig = getattr(Fraction, name)

        def f(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, wrap(f))

    counted("__new__", staticmethod)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        counted(name)
    den, nums = result = bip.alpha(x, y)
    assert nums and calls == {}
    values = bip.decompose(result)
    monkeypatch.undo()
    assert calls == {"__new__": len(nums)}
    assert values == {k: Fraction(n, den) for k, n in nums.items()}


def _as_4x4(bip, x) -> np.ndarray:
    """A composite of two 2x2 matrix carriers as the Kronecker-product matrix."""
    out = np.zeros((4, 4), dtype=complex)
    for ((i1, j1), (i2, j2)), v in bip.decompose(x).items():
        out[2 * i1 + i2, 2 * j1 + j2] = v
    return out


@pytest.mark.parametrize("hbar", (Fraction(2), Fraction(1)))
def test_composition_oracle_is_4x4_matrix_carrier(hbar):
    """The operator twin of the dof-2 oracle: the mu alpha1 alpha2 term with
    mu = -hbar^2/4 is what makes composed 2x2 products the 4x4 products of
    Kronecker products (mu = -1/4 at hbar = 1 puts a denominator on the float path)."""
    m2, m4 = matrix_carrier(2, hbar), matrix_carrier(4, hbar)
    bip = compose_bipartite(m2, m2)
    rng = random.Random(24)
    for _ in range(50):
        a, b, c, d = (m2.sample(rng) for _ in range(4))
        for prod in ("sigma", "alpha"):
            got = _as_4x4(bip, getattr(bip, prod)(tensor(m2, m2, a, b), tensor(m2, m2, c, d)))
            want = getattr(m4, prod)(np.kron(a, b), np.kron(c, d))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), prod


def test_monoid_tolerance_scales_with_float_coefficients():
    m = matrix_carrier(2)
    big = dataclasses.replace(m, sample=lambda rng: 1000 * m.sample(rng))
    rep = check_monoid(big, big, big, count=5, seed=25)
    assert rep.passed and rep.max_residual > 0.0, rep.failures[:1]
    # a relative 1e-6 error in one side (the unit) still fails unit absorption
    off = dataclasses.replace(big, unit=(1 + 1e-6) * m.unit)
    rep = check_monoid(off, off, off, count=5, seed=25)
    assert {f["law"] for f in rep.failures} == {"sigma-unit-absorption", "alpha-unit-absorption"}


def _reference_check_identity(carrier, identity, count, seed):
    """check_identity with its own judging loop, as it was before the shared
    ``_judge``: the oracle for failures and max_residual."""
    rng = random.Random(seed)
    rep = algebra.IdentityReport(identity, carrier.name, count)
    for i in range(count):
        elems = tuple(carrier.sample(rng) for _ in range(algebra.IDENTITY_ARITY[identity]))
        for defect, summands in algebra._defects(carrier, identity, elems):
            r = carrier.residual(defect)
            rep.max_residual = max(rep.max_residual, r)
            scale = max(1.0, *map(carrier.residual, summands)) if carrier.tol else 1.0
            if r > carrier.tol * scale:
                rep.failures.append({"sample": i, "residual": r, "witness": repr(elems)})
    return rep


def _reference_check_monoid(a, b, c, count, seed):
    """check_monoid as it was before the shared ``_judge``: each law compares
    the decomposed sides as Fraction dicts over their key union, at the
    largest tolerance of the three factors."""
    ab, ba = compose_bipartite(a, b), compose_bipartite(b, a)
    ab_c = compose_bipartite(ab, c)
    bc = compose_bipartite(b, c)
    a_bc = compose_bipartite(a, bc)
    rng = random.Random(seed)
    rep = algebra.IdentityReport("monoid", f"{a.name},{b.name},{c.name}", count)
    tol = max(a.tol, b.tol, c.tol)
    mag = algebra._magnitude

    def law(i, name, d1, d2):
        r = max((mag(d1.get(k, 0) - d2.get(k, 0)) for k in d1.keys() | d2.keys()), default=0.0)
        rep.max_residual = max(rep.max_residual, r)
        scale = max([1.0, *map(mag, chain(d1.values(), d2.values()))]) if tol else 1.0
        if r > tol * scale:
            rep.failures.append({"sample": i, "law": name, "residual": r})

    for i in range(count):
        fa, fb, fc = a.sample(rng), b.sample(rng), c.sample(rng)
        ga, gb, gc = a.sample(rng), b.sample(rng), c.sample(rng)
        for prod in ("sigma", "alpha"):
            d12 = ab.decompose(getattr(ab, prod)(tensor(a, b, fa, fb), tensor(a, b, ga, gb)))
            d21 = ba.decompose(getattr(ba, prod)(tensor(b, a, fb, fa), tensor(b, a, gb, ga)))
            law(i, f"{prod}-commutativity", d12, {(k[1], k[0]): v for k, v in d21.items()})
        left_f = tensor(ab, c, tensor(a, b, fa, fb), fc)
        left_g = tensor(ab, c, tensor(a, b, ga, gb), gc)
        right_f = tensor(a, bc, fa, tensor(b, c, fb, fc))
        right_g = tensor(a, bc, ga, tensor(b, c, gb, gc))
        for prod in ("sigma", "alpha"):
            dl = ab_c.decompose(getattr(ab_c, prod)(left_f, left_g))
            dl = {(ka, (kb, kc)): v for ((ka, kb), kc), v in dl.items()}
            law(i, f"{prod}-associativity", dl, a_bc.decompose(getattr(a_bc, prod)(right_f, right_g)))
        for prod in ("sigma", "alpha"):
            got = getattr(ab, prod)(tensor(a, b, fa, b.unit), tensor(a, b, ga, b.unit))
            want = tensor(a, b, getattr(a, prod)(fa, ga), b.unit)
            law(i, f"{prod}-unit-absorption", ab.decompose(got), ab.decompose(want))
    return rep


def _big_matrix():
    m = matrix_carrier(2)
    return dataclasses.replace(m, sample=lambda rng: 1000 * m.sample(rng))


def _off_unit_matrix():
    big = _big_matrix()
    return dataclasses.replace(big, unit=(1 + 1e-6) * big.unit)


def _perturbed_alpha_matrix(dim):
    m = matrix_carrier(dim)
    return dataclasses.replace(m, alpha=lambda x, y: m.alpha(x, y) + 1e-9 * (x @ y))


def _symmetric_part_phase(cls):
    """alpha plus sigma: skew-alpha fails, exactly."""
    c = phase_poly_carrier(cls, Fraction(2), 1, 2)
    return dataclasses.replace(c, alpha=lambda x, y: c.alpha(x, y) + c.sigma(x, y))


def _off_unit_phase(cls):
    c = phase_poly_carrier(cls, Fraction(2), 1, 2)
    return dataclasses.replace(c, unit=PhasePoly.const(2, 1))


# name -> (carrier factory, samples per law, whether some law must fail)
JUDGE_CASES = {
    **{f"exact-{cls}": (lambda cls=cls: phase_poly_carrier(cls, Fraction(2), 1, 2), 3, False) for cls in CLASSES},
    **{f"exact-symmetric-alpha-{cls}": (lambda cls=cls: _symmetric_part_phase(cls), 3, True) for cls in CLASSES},
    **{f"exact-off-unit-{cls}": (lambda cls=cls: _off_unit_phase(cls), 3, True) for cls in CLASSES},
    "matrix-x1000": (_big_matrix, 5, False),
    "matrix-off-unit": (_off_unit_matrix, 5, True),
    "matrix2-perturbed-alpha": (lambda: _perturbed_alpha_matrix(2), 5, True),
    "matrix16-perturbed-alpha": (lambda: _perturbed_alpha_matrix(16), 5, True),
}


@pytest.mark.parametrize("case", sorted(JUDGE_CASES))
def test_check_identity_matches_reference_loop(case):
    make, count, fails = JUDGE_CASES[case]
    carrier = make()
    failed = False
    for k, ident in enumerate(IDENTITIES):
        got = check_identity(carrier, ident, count, 26 + k)
        want = _reference_check_identity(carrier, ident, count, 26 + k)
        assert (got.failures, got.max_residual) == (want.failures, want.max_residual), ident
        failed |= bool(got.failures)
    assert failed == fails


@pytest.mark.parametrize("case", sorted(k for k in JUDGE_CASES if k != "matrix16-perturbed-alpha"))
def test_check_monoid_matches_reference_laws(case):
    """Each law as one defect on its composite gives the key-union comparison's
    failures, in order, and its max_residual, bit for bit."""
    make, count, fails = JUDGE_CASES[case]
    c = make()
    got = check_monoid(c, c, c, count=count, seed=27)
    want = _reference_check_monoid(c, c, c, count=count, seed=27)
    assert got.failures == want.failures
    assert got.max_residual == want.max_residual
    assert bool(got.failures) == fails
    if case == "matrix-x1000":
        assert got.max_residual > 0.0
    if "off-unit" in case:
        assert {f["law"] for f in got.failures} == {"sigma-unit-absorption", "alpha-unit-absorption"}
