"""Kernel-indexed elements: embeddings, algebra, derivatives, transport."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfkernel.basic import (
    CHAIN_LOCAL,
    CHAIN_POINT_INDEP,
    CHAIN_POINT_LOCAL,
    Diffeo1D,
    LocalityTag,
    Product,
    Sigma,
    affine_diffeo,
    as_generic,
    audit_tag,
    d_eval,
    eval_basic,
    iota,
    lie_hat,
    lie_tilde,
    probe_locality,
    pushforward,
    restrict_basic,
    sigma,
    tag_of,
)
from gfkernel.dist import delta, heaviside, lie_dist, pair, regular
from gfkernel.errors import DomainMismatch
from gfkernel.kernel import (
    LieKernel, apply_kernel, make_mollifier, restrict_seq, standard_sequence)
from gfkernel.smooth import (
    Domain,
    VectorField,
    _product,
    bump,
    constant,
    constant_field,
    exp_fn,
    lin_comb,
    polynomial,
    sin_fn,
)

DOM = Domain.interval(-2.0, 2.0)

# chain leaves and coefficients: point masses, and smooth functions with
# and without compact support, so products can vanish on disjoint supports
POINTS = (-1.2, -0.1, 0.0, 0.3, 1.1)
FNS = (sin_fn(DOM), exp_fn(DOM), polynomial([0.5, -1.0, 0.25], DOM),
       bump(0.2, 0.5, DOM), bump(-1.0, 0.4, DOM))
_leaf = st.one_of(st.tuples(st.just("iota"), st.sampled_from(POINTS)),
                  st.tuples(st.just("sigma"), st.sampled_from(range(len(FNS)))))
_args = {"+": _leaf, "-": _leaf, "*": _leaf,
         "num": st.sampled_from((-1.5, 0.5, 3.0)),
         "fn": st.sampled_from(range(len(FNS)))}


@st.composite
def _chains(draw):
    """A first leaf, 0-4 steps, and one right-nested operand (op, (op, leaf,
    leaf)) inserted at a drawn place: 2-6 parts.  Each chain draws its steps
    from one palette, so long sums, products and scalings all come up."""
    ops = draw(st.sampled_from((("+", "-"), ("*",), ("num", "fn"), tuple(_args))))
    steps = draw(st.lists(st.sampled_from(ops).flatmap(
        lambda op: st.tuples(st.just(op), _args[op])), max_size=4))
    nested = draw(st.tuples(st.sampled_from("+-*"), st.sampled_from("+-*"),
                            _leaf, _leaf))
    return draw(_leaf), steps, draw(st.integers(0, len(steps))), nested


def _leaf_triple(leaf, ker):
    """(element, its evaluation, its tag) for one chain leaf."""
    kind, arg = leaf
    R = iota(delta(arg, domain=DOM)) if kind == "iota" else sigma(FNS[arg], DOM)
    return R, eval_basic(R, ker), tag_of(R)


def _binary(op, x, y):
    """x op y on elements, and by the rules of binary nodes on evaluations
    and tags: every sum, product and scaling one SmoothFn operation."""
    (a, fa, ta), (b, fb, tb) = x, y
    if op == "+":
        return a + b, fa + fb, ta.meet(tb)
    if op == "-":
        return a - b, fa + constant(-1.0, DOM) * fb, ta.meet(tb)
    if isinstance(b, Sigma):
        return a * b, fb * fa, LocalityTag(min(ta.chain, CHAIN_POINT_LOCAL), ta.linear)
    t = ta.meet(tb)
    return a * b, fa * fb, LocalityTag(t.chain, False)


def _binary_rule(parts, ker, dirs):
    """Kernel-direction differentials of a product by the binary rule:
    (all parts but the last) x (the last), recursively, one term per
    subset of the directions that goes to the first factor."""
    if len(parts) == 1 or not dirs:
        return d_eval(parts[0] if len(parts) == 1 else Product(parts), ker, dirs)
    idx = range(len(dirs))
    terms = []
    for r in range(len(dirs) + 1):
        for S in itertools.combinations(idx, r):
            Sc = tuple(i for i in idx if i not in S)
            terms.append(_binary_rule(parts[:-1], ker, tuple(dirs[i] for i in S))
                         * d_eval(parts[-1], ker, tuple(dirs[i] for i in Sc)))
    return lin_comb(terms, [1.0] * len(terms))


class TestEmbeddings:
    def test_point_mass_embedding_reads_kernel_rows(self, q3_seq):
        ker = q3_seq.at(16)
        out = eval_basic(iota(delta(0.4, domain=DOM)), ker)
        xs = np.array([0.35, 0.4, 0.45])
        want = np.array([ker.jets(float(x), 0, np.array([0.4]), 0)[0, 0, 0]
                         for x in xs])
        np.testing.assert_allclose(out.jet(xs, 0), want, rtol=0, atol=1e-12)

    def test_constant_embedding_ignores_kernel(self, q3_seq, q1_seq):
        R = sigma(sin_fn(), DOM)
        a = eval_basic(R, q3_seq.at(8))
        b = eval_basic(R, q1_seq.at(128))
        xs = np.linspace(-1.5, 1.5, 9)
        np.testing.assert_array_equal(a.jet(xs, 0), b.jet(xs, 0))
        np.testing.assert_allclose(a.jet(xs, 0), np.sin(xs), rtol=0, atol=0)

    def test_smooth_embedding_is_algebra_morphism(self, q3_seq):
        # sigma(fg) and sigma(f) sigma(g) evaluate identically, any kernel
        f, g = sin_fn(), exp_fn()
        lhs = eval_basic(sigma(f * g, DOM), q3_seq.at(8))
        rhs = eval_basic(sigma(f, DOM) * sigma(g, DOM), q3_seq.at(8))
        xs = np.linspace(-1.0, 1.0, 17)
        np.testing.assert_array_equal(lhs.jet(xs, 0), rhs.jet(xs, 0))


class TestAlgebra:
    def test_sum_product_scalar(self, q3_seq):
        ker = q3_seq.at(16)
        A = iota(delta(0.0, domain=DOM))
        B = sigma(polynomial([1.0, 1.0], DOM), DOM)
        xs = np.linspace(-0.2, 0.2, 5)
        ea, eb = eval_basic(A, ker), eval_basic(B, ker)
        np.testing.assert_allclose(
            eval_basic(A + B, ker).jet(xs, 0), ea.jet(xs, 0) + eb.jet(xs, 0),
            rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            eval_basic(A * B, ker).jet(xs, 0), ea.jet(xs, 0) * eb.jet(xs, 0),
            rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            eval_basic(3.0 * A - A, ker).jet(xs, 0), 2.0 * ea.jet(xs, 0),
            rtol=0, atol=1e-12)

    @settings(max_examples=150)
    @given(_chains())
    def test_chains_keep_the_binary_floats(self, q3_seq, recipe):
        first, steps, at, (outer, inner, l1, l2) = recipe
        ker = q3_seq.at(16)
        nested = _binary(inner, _leaf_triple(l1, ker), _leaf_triple(l2, ker))
        steps.insert(at, (outer, nested))
        cur = _leaf_triple(first, ker)
        for op, arg in steps:
            if op == "num":
                a, fa, ta = cur
                cur = arg * a, constant(arg, DOM) * fa, ta
            elif op == "fn":
                a, fa, ta = cur
                cur = (FNS[arg] * a, FNS[arg] * fa,
                       LocalityTag(min(ta.chain, CHAIN_POINT_LOCAL), ta.linear))
            else:
                cur = _binary(op, cur,
                              arg if arg is nested else _leaf_triple(arg, ker))
        R, want, want_tag = cur
        got = eval_basic(R, ker)
        xs = np.concatenate([np.linspace(-1.9, 1.9, 77), POINTS])
        assert np.array_equal(got.jets(xs, 2), want.jets(xs, 2))
        assert got.support == want.support
        assert got.const_value == want.const_value
        assert got.breaks == want.breaks
        assert got.jet_cap == want.jet_cap
        assert tag_of(R) == want_tag

    def test_domain_mismatch_rejected(self, q3_seq):
        other = sigma(sin_fn(), Domain.interval(-1.0, 1.0))
        with pytest.raises(DomainMismatch):
            eval_basic(other, standard_sequence(
                Domain.interval(-3.0, 3.0), make_mollifier(1)).at(8))


class TestSharedOperands:
    def _count_jets(self, monkeypatch, ker):
        calls = []
        real = type(ker).jets
        monkeypatch.setattr(type(ker), "jets",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    def test_equal_leaves_pair_once(self, q3_seq, monkeypatch):
        ker = q3_seq.at(16)
        u, u2 = delta(0.1, domain=DOM), delta(0.1, domain=DOM)
        assert u == u2 and u is not u2
        xs = np.linspace(-0.2, 0.4, 61)
        calls = self._count_jets(monkeypatch, ker)
        want = _product(apply_kernel(ker, u), apply_kernel(ker, u2)).jets(xs, 2)
        unshared = len(calls)
        calls.clear()
        got = eval_basic(iota(u) * iota(u2), ker).jets(xs, 2)
        assert np.array_equal(got, want)
        assert 2 * len(calls) == unshared == 2

    def test_a_leaf_under_two_parents_pairs_once(self, q3_seq, monkeypatch):
        # H*H - H: three uses of one step object, one pairing per call
        ker = q3_seq.at(8)
        H = heaviside(DOM, jump_at=0.25)
        xs = np.linspace(0.0, 0.5, 9)
        calls = self._count_jets(monkeypatch, ker)
        eh = [apply_kernel(ker, H) for _ in range(3)]
        want = lin_comb([_product(eh[0], eh[1]), constant(-1.0, DOM) * eh[2]],
                        [1.0, 1.0]).jets(xs, 1)
        unshared = len(calls)
        calls.clear()
        got = eval_basic(iota(H) * iota(H) - iota(H), ker).jets(xs, 1)
        assert np.array_equal(got, want)
        assert 3 * len(calls) == unshared

    def test_mutating_returned_jets_leaves_the_next_call_alone(self, q3_seq):
        ker = q3_seq.at(16)
        leaf = apply_kernel(ker, delta(0.1, domain=DOM))
        xs = np.linspace(0.05, 0.15, 11)
        want = leaf.jets(xs, 1).copy()
        for read in (lambda: leaf._jet_all(xs, 1), lambda: leaf.jets(xs, 1)):
            read()[:] = 7.0
            assert np.array_equal(read(), want)

    def test_no_sharing_across_evaluations(self, q3_seq):
        R = iota(delta(0.1, domain=DOM))
        ker = q3_seq.at(16)
        assert eval_basic(R, ker) is not eval_basic(R, ker)


class TestLocalityTags:
    def test_embedding_tags(self):
        ti = tag_of(iota(delta(0.0, domain=DOM)))
        assert ti.chain == CHAIN_POINT_INDEP and ti.linear
        ts = tag_of(sigma(sin_fn(), DOM))
        assert ts.chain == CHAIN_POINT_LOCAL and not ts.linear

    def test_product_drops_linearity_keeps_chain(self):
        A = iota(delta(0.0, domain=DOM))
        t = tag_of(A * A)
        assert t.chain == CHAIN_POINT_INDEP and not t.linear

    def test_recentering_derivative_demotes_to_local(self):
        A = iota(delta(0.0, domain=DOM))
        X = constant_field(1.0, DOM)
        assert tag_of(lie_tilde(X, A)).chain == CHAIN_LOCAL
        assert tag_of(lie_hat(X, A)).chain == CHAIN_POINT_INDEP

    def test_probe_agrees_with_stated_tags(self):
        for R in (iota(delta(0.0, domain=DOM)),
                  sigma(sin_fn(), DOM),
                  iota(delta(0.0, domain=DOM)) * sigma(sin_fn(), DOM)):
            rep = probe_locality(R)
            assert rep.consistent_with(tag_of(R)), type(R).__name__

    def test_probe_separates_nonlinear_from_linear(self):
        A = iota(delta(0.0, domain=DOM))
        rep = probe_locality(A * A)
        assert not rep.linear

    def test_audit_flags_wrong_claim(self):
        # a generic wrapper claiming more locality than the element has
        from gfkernel.basic import GenericElement, LocalityTag
        from gfkernel.errors import WrongTag

        A = iota(delta(0.0, domain=DOM)) * iota(delta(0.0, domain=DOM))
        wrapped = GenericElement(lambda ker: eval_basic(A, ker), DOM,
                                 LocalityTag(CHAIN_POINT_INDEP, linear=True))
        with pytest.raises(WrongTag):
            audit_tag(wrapped)

    def test_audit_passes_honest_claim(self):
        rep = audit_tag(iota(delta(0.0, domain=DOM)))
        assert rep.consistent_with(
            tag_of(iota(delta(0.0, domain=DOM))))


class TestDifferentials:
    def test_linear_elements_have_constant_differential(self, q3_seq, q1_seq):
        A = iota(delta(0.0, domain=DOM))
        ker, dk = q3_seq.at(16), q1_seq.at(16)
        got = d_eval(A, ker, (dk,))
        want = eval_basic(A, dk)
        xs = np.linspace(-0.2, 0.2, 5)
        np.testing.assert_allclose(got.jet(xs, 0), want.jet(xs, 0),
                                   rtol=0, atol=1e-12)

    def test_constant_elements_have_zero_differential(self, q3_seq, q1_seq):
        S = sigma(sin_fn(), DOM)
        got = d_eval(S, q3_seq.at(16), (q1_seq.at(16),))
        xs = np.linspace(-1.0, 1.0, 5)
        np.testing.assert_array_equal(got.jet(xs, 0), np.zeros(5))

    def test_product_rule_in_kernel_direction(self, q3_seq, q1_seq):
        A = iota(delta(0.0, domain=DOM))
        P = A * A
        ker, dk = q3_seq.at(16), q1_seq.at(16)
        got = d_eval(P, ker, (dk,))
        ea, eda = eval_basic(A, ker), eval_basic(A, dk)
        xs = np.linspace(-0.1, 0.1, 7)
        np.testing.assert_allclose(got.jet(xs, 0),
                                   2.0 * ea.jet(xs, 0) * eda.jet(xs, 0),
                                   rtol=0, atol=1e-10)

    @settings(max_examples=40)
    @given(st.lists(st.one_of(_leaf, st.tuples(_leaf, _leaf)), min_size=2, max_size=5),
           st.integers(1, 3))
    @example([("iota", -0.1), ("iota", 0.0), ("iota", -0.1)], 2)  # three live terms
    def test_one_direction_product_rule_keeps_the_binary_floats(self, q3_seq, specs, n):
        # the flat recurrence against the binary rule it replaces, in one
        # to three directions, with sigma and sum factors and disjoint
        # supports among the parts
        ker = q3_seq.at(16)
        dirs = tuple(LieKernel(VectorField(polynomial(c, DOM)), ker)
                     for c in ([0.3, 1.0], [-0.5, 0.2], [1.0, 0.0, -0.4])[:n])
        parts = tuple(_leaf_triple(s, ker)[0] if isinstance(s[0], str) else
                      _leaf_triple(s[0], ker)[0] + _leaf_triple(s[1], ker)[0]
                      for s in specs)
        got = d_eval(Product(parts), ker, dirs)
        want = _binary_rule(parts, ker, dirs)
        xs = np.concatenate([np.linspace(-1.9, 1.9, 77), POINTS])
        assert np.array_equal(got.jets(xs, 2), want.jets(xs, 2))
        assert (got.support, got.const_value, got.breaks, got.jet_cap) == \
            (want.support, want.const_value, want.breaks, want.jet_cap)

    def test_long_lie_hat_product_evaluates(self, q3_seq):
        # 1,500 factors: far past the recursion limit, which the binary
        # rule's nesting reached.  On the plateau the transported kernel
        # does not move, so lie_hat(f^N) = N f^(N-1) f', and lie_hat
        # twice, two kernel directions, gives (f^N)''.
        n = 1500
        X = constant_field(1.0, DOM)
        R = lie_hat(X, Product((iota(delta(0.1, domain=DOM)),) * n))
        ker = q3_seq.at(8)
        f = eval_basic(iota(delta(0.1, domain=DOM)), ker)
        xs = np.linspace(0.1, 0.3, 401)
        v = f.jet(xs, 0)
        xs = xs[(np.abs(v) > 0.8) & (np.abs(v) < 1.2)]
        assert xs.size
        v, dv, d2v = f.jets(xs, 2)
        got = eval_basic(R, ker).jet(xs, 0)
        np.testing.assert_allclose(got, n * v ** (n - 1) * dv, rtol=1e-9, atol=0)
        got = eval_basic(lie_hat(X, R), ker).jet(xs, 0)
        want = n * (n - 1) * v ** (n - 2) * dv ** 2 + n * v ** (n - 1) * d2v
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_generic_fallback_matches_structural(self, q3_seq, q1_seq):
        A = iota(delta(0.0, domain=DOM)) * iota(delta(0.0, domain=DOM))
        G = as_generic(A)
        ker, dk = q3_seq.at(16), q1_seq.at(16)
        structural = d_eval(A, ker, (dk,))
        fd = d_eval(G, ker, (dk,))
        xs = np.linspace(-0.1, 0.1, 5)
        scale = np.max(np.abs(structural.jet(xs, 0))) + 1.0
        assert np.max(np.abs(fd.jet(xs, 0) - structural.jet(xs, 0))) / scale < 1e-5


class TestLieDerivatives:
    def test_flow_derivative_commutes_with_point_embedding(self, q3_seq):
        # moving the mass then smoothing = smoothing then deriving
        X = constant_field(1.0, DOM)
        A = lie_hat(X, iota(delta(0.0, domain=DOM)))
        B = iota(lie_dist(X, delta(0.0, domain=DOM)))
        ker = q3_seq.at(16)
        xs = np.linspace(-0.2, 0.2, 9)
        diff = eval_basic(A, ker).jet(xs, 0) - eval_basic(B, ker).jet(xs, 0)
        assert np.max(np.abs(diff)) < 1e-8

    def test_flow_derivative_on_smooth_is_directional(self, q3_seq):
        X = VectorField(polynomial([0.0, 1.0], DOM))
        A = lie_hat(X, sigma(sin_fn(), DOM))
        ker = q3_seq.at(8)
        xs = np.linspace(-1.0, 1.0, 9)
        np.testing.assert_allclose(eval_basic(A, ker).jet(xs, 0),
                                   xs * np.cos(xs), rtol=0, atol=1e-10)

    def test_recentering_derivative_is_postcomposition(self, q3_seq):
        X = VectorField(polynomial([0.0, 1.0], DOM))
        A = iota(heaviside(DOM))
        ker = q3_seq.at(16)
        base = eval_basic(A, ker)
        got = eval_basic(lie_tilde(X, A), ker)
        xs = np.linspace(-0.3, 0.3, 7)
        np.testing.assert_allclose(got.jet(xs, 0), xs * base.jet(xs, 1),
                                   rtol=0, atol=1e-11)

    def test_module_linearity_over_smooth_coefficients(self, q3_seq):
        # scaling the field by f scales the recentering derivative by sigma f
        f = polynomial([0.0, 1.0], DOM)
        X = constant_field(1.0, DOM)
        R = iota(delta(0.0, domain=DOM))
        lhs = eval_basic(lie_tilde(VectorField(f), R), q3_seq.at(16))
        rhs = eval_basic(sigma(f, DOM) * lie_tilde(X, R), q3_seq.at(16))
        xs = np.linspace(-0.2, 0.2, 9)
        np.testing.assert_allclose(lhs.jet(xs, 0), rhs.jet(xs, 0),
                                   rtol=0, atol=1e-12)


class TestRestriction:
    def test_restriction_composes(self, q3_seq):
        R = iota(delta(0.0, domain=DOM)) + sigma(sin_fn(), DOM)
        V, W = Domain.interval(-1.5, 1.5), Domain.interval(-0.75, 0.75)
        two_step = restrict_basic(restrict_basic(R, V), W)
        one_step = restrict_basic(R, W)
        seq = standard_sequence(W, make_mollifier(3))
        xs = np.linspace(-0.5, 0.5, 9)
        a = eval_basic(two_step, seq.at(16)).jet(xs, 0)
        b = eval_basic(one_step, seq.at(16)).jet(xs, 0)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_restriction_forgets_outside_masses(self, q3_seq):
        R = iota(delta(-1.0, domain=DOM) + delta(1.0, domain=DOM))
        V = Domain.interval(0.0, 2.0)
        sub = restrict_basic(R, V)
        seq = standard_sequence(V, make_mollifier(3))
        out = eval_basic(sub, seq.at(32))
        assert out.jet(1.0, 0) > 1.0          # the mass at 1 is seen
        assert out.jet(0.3, 0) == 0.0         # the mass at -1 is gone

    @pytest.mark.parametrize("kind", ["lietilde", "pushforward", "generic"])
    def test_restriction_is_invisible_deep_inside(self, kind):
        # evaluating on the restricted sequence restricts the element
        # node by node; on (-0.5, 0.5) the restricted kernel is the base
        R = {"lietilde": lie_tilde(VectorField(polynomial([0.3, 1.0], DOM)),
                                   iota(delta(0.1, domain=DOM))),
             "pushforward": pushforward(iota(delta(0.0, domain=DOM)),
                                        affine_diffeo(2.0, 0.3, DOM)),
             "generic": as_generic(iota(delta(0.1, domain=DOM)))}[kind]
        seq = standard_sequence(R.domain, make_mollifier(3))
        sub = restrict_seq(seq, Domain.interval(-1.0, 1.0))
        xs = np.linspace(-0.3, 0.45, 31)
        for k in (16, 32):
            want = eval_basic(R, seq.at(k)).jet(xs, 0)
            assert np.any(want != 0.0)
            np.testing.assert_array_equal(eval_basic(R, sub.at(k)).jet(xs, 0), want)


class TestTransport:
    def test_affine_transport_of_smooth(self, q3_seq):
        mu = affine_diffeo(2.0, 1.0, DOM)
        R = pushforward(sigma(sin_fn(), DOM), mu)
        img_seq = standard_sequence(mu.image, make_mollifier(3))
        out = eval_basic(R, img_seq.at(16))
        zs = np.linspace(-1.0, 3.0, 9)
        np.testing.assert_allclose(out.jet(zs, 0), np.sin((zs - 1.0) / 2.0),
                                   rtol=0, atol=1e-12)

    def test_transport_preserves_tag(self):
        mu = affine_diffeo(2.0, 1.0, DOM)
        A = iota(delta(0.0, domain=DOM))
        assert tag_of(pushforward(A, mu)) == tag_of(A)

    def test_diffeo_validation(self):
        f = polynomial([0.0, 0.0, 1.0], Domain.interval(-1.0, 1.0))  # x^2
        g = polynomial([0.0, 1.0], Domain.interval(-1.0, 1.0))
        with pytest.raises(DomainMismatch):
            Diffeo1D(f, g, Domain.interval(-1.0, 1.0),
                     Domain.interval(-1.0, 1.0))

    def test_roundtrip_is_identity(self, q3_seq):
        mu = affine_diffeo(2.0, 1.0, DOM)
        nu = affine_diffeo(0.5, -0.5, mu.image)  # the inverse map
        A = iota(delta(0.3, domain=DOM))
        R = pushforward(pushforward(A, mu), nu)
        ker = q3_seq.at(16)
        xs = np.linspace(0.1, 0.5, 9)
        a = eval_basic(R, ker).jet(xs, 0)
        b = eval_basic(A, ker).jet(xs, 0)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
