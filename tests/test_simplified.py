"""Sequence-space model: representatives, classification, the round trip."""

import numpy as np
import pytest

from gfkernel.basic import eval_basic, iota, sigma
from gfkernel.dist import delta, regular
from gfkernel.errors import DomainMismatch, NoSeparation
from gfkernel.kernel import (
    constant_witness_seq, make_mollifier, restrict_seq, standard_sequence)
from gfkernel.simplified import (
    SimplifiedRep,
    classify_seq,
    iota_seq,
    pullback_seq,
    section_seq,
    separation_values,
    sigma_seq,
)
from gfkernel.smooth import CompactInterval, Domain, plateau, sin_fn
from gfkernel.testing import default_region, is_moderate, is_negligible
from tests.conftest import SHORT_KS

DOM = Domain.interval(-2.0, 2.0)


class TestRepresentatives:
    def test_iota_seq_evaluates_along_default_family(self):
        rep = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        assert rep.k_grid == SHORT_KS
        # values double with k on the plateau
        v8 = rep.at(8).jet(0.0, 0)
        v16 = rep.at(16).jet(0.0, 0)
        assert v16 == pytest.approx(2.0 * v8, rel=1e-12)

    def test_sigma_seq_is_constant_family(self):
        rep = sigma_seq(sin_fn(), DOM, k_grid=SHORT_KS)
        xs = np.linspace(-1.0, 1.0, 7)
        for k in SHORT_KS:
            np.testing.assert_array_equal(rep.at(k).jet(xs, 0), np.sin(xs))

    def test_termwise_arithmetic(self):
        a = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        b = sigma_seq(sin_fn(), DOM, k_grid=SHORT_KS)
        xs = np.linspace(-0.3, 0.3, 5)
        for k in SHORT_KS:
            np.testing.assert_allclose(
                (a + b).at(k).jet(xs, 0),
                a.at(k).jet(xs, 0) + b.at(k).jet(xs, 0), rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                (a * b).at(k).jet(xs, 0),
                a.at(k).jet(xs, 0) * b.at(k).jet(xs, 0), rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                (2.0 * a - a).at(k).jet(xs, 0), a.at(k).jet(xs, 0),
                rtol=0, atol=1e-12)

    def test_termwise_derivative(self):
        rep = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        d = rep.derivative()
        xs = np.linspace(-0.1, 0.1, 5)
        for k in SHORT_KS:
            np.testing.assert_allclose(d.at(k).jet(xs, 0),
                                       rep.at(k).jet(xs, 1),
                                       rtol=0, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        a = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        b = iota_seq(delta(0.0, domain=DOM), k_grid=(8, 16))
        with pytest.raises(ValueError):
            a + b

    def test_domain_mismatch_rejected(self):
        a = iota_seq(delta(0.0, domain=DOM), k_grid=(8, 16))
        b = sigma_seq(sin_fn(), Domain.interval(-1.0, 1.0), k_grid=(8, 16))
        with pytest.raises(DomainMismatch):
            a + b

    def test_rep_length_must_match_grid(self):
        with pytest.raises(ValueError):
            SimplifiedRep(DOM, SHORT_KS, (sin_fn(),))


class TestSeparation:
    def test_standard_family_separates_rates(self, q3_seq):
        vals = separation_values(q3_seq, SHORT_KS)
        assert len(vals) == 3
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_values_equal_a_scalar_x_loop(self, q3_seq):
        # composite Simpson over 65 diagonal values, one jets call per x
        def reference(ker, K):
            xs = np.linspace(K.lo, K.hi, 65)
            diag = np.array([ker.jets(float(x), 0, np.array([float(x)]), 0)[0, 0, 0]
                             for x in xs])
            w = np.ones(65)
            w[1:-1:2] = 4.0
            w[2:-2:2] = 2.0
            return float((K.hi - K.lo) / 64 / 3.0 * (w @ diag))

        K = CompactInterval(-0.7, 0.9)
        for seq in (q3_seq, restrict_seq(q3_seq, Domain.interval(-1.0, 1.0))):
            want = tuple(reference(seq.at(k), K) for k in SHORT_KS)
            assert separation_values(seq, SHORT_KS, K=K) == want

    def test_witness_family_cannot_separate(self):
        with pytest.raises(NoSeparation):
            separation_values(constant_witness_seq(DOM), SHORT_KS)


class TestRoundTrip:
    def test_point_mass_roundtrip_is_exact(self):
        rep = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        G = section_seq(rep)
        back = pullback_seq(G, k_grid=SHORT_KS)
        xs = np.linspace(-0.4, 0.4, 33)
        for k in SHORT_KS:
            a, b = back.at(k).jet(xs, 0), rep.at(k).jet(xs, 0)
            assert np.max(np.abs(a - b)) == 0.0, k

    def test_smooth_roundtrip_is_exact(self):
        rep = sigma_seq(sin_fn(), DOM, k_grid=SHORT_KS)
        G = section_seq(rep)
        back = pullback_seq(G, k_grid=SHORT_KS)
        xs = np.linspace(-1.5, 1.5, 33)
        for k in SHORT_KS:
            assert np.max(np.abs(back.at(k).jet(xs, 0)
                                 - rep.at(k).jet(xs, 0))) == 0.0, k

    def test_section_snaps_to_nearest_rate_window(self, q3_seq):
        # just off the grid the separation value still lands in the k=8
        # window, so the section hands back that entry unchanged
        rep = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        G = section_seq(rep)
        out = eval_basic(G, q3_seq.at(9))
        assert out.jet(0.0, 0) == rep.at(8).jet(0.0, 0)

    def test_section_is_zero_between_windows(self, q3_seq):
        # halfway between rate windows nothing is live; the section is
        # deliberately zero rather than an uncontrolled blend
        rep = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        G = section_seq(rep)
        out = eval_basic(G, q3_seq.at(12))
        assert out.jet(0.0, 0) == 0.0

    def test_section_blends_on_a_window_slope(self, q3_seq):
        # k = 10 has diagonal mass a quarter of the way from the k = 8
        # value to the k = 16 value: on the falling edge of the k = 8
        # window, so the section returns that entry scaled by the window
        rep = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        G = section_seq(rep)
        s8, s16, _ = separation_values(q3_seq, SHORT_KS, K=default_region(DOM))
        t = separation_values(q3_seq, (10,), K=default_region(DOM))[0]
        g = s16 - s8
        weight = plateau(s8 - 0.2 * g, s8 + 0.2 * g, 0.2 * g).jet(t, 0)
        assert 0.0 < weight < 1.0
        xs = np.linspace(-0.4, 0.4, 33)
        out = eval_basic(G, q3_seq.at(10)).jet(xs, 0)
        np.testing.assert_array_equal(out, weight * rep.at(8).jet(xs, 0))

    def test_section_on_a_kernel_that_cuts_the_region(self, q3_seq):
        # a kernel on (0, 2) measures its diagonal mass on the part of the
        # region inside its domain, about half the full mass, which at
        # k = 16 lands in the k = 8 window; the entry comes back on (0, 2)
        V = Domain.interval(0.0, 2.0)
        rep = iota_seq(delta(0.0, domain=DOM), k_grid=SHORT_KS)
        out = eval_basic(section_seq(rep), restrict_seq(q3_seq, V).at(16))
        assert out.domain == V
        xs = np.linspace(0.05, 0.4, 15)
        np.testing.assert_array_equal(out.jet(xs, 0), rep.at(8).jet(xs, 0))


class TestClassificationAgreement:
    @pytest.mark.parametrize("label", ["pointmass", "square", "defect", "zero"])
    def test_both_paths_agree(self, label, q3_seq):
        ks = (8, 16)
        A = iota(delta(0.0, domain=DOM))
        S = sigma(sin_fn(), DOM)
        R = {
            "pointmass": A,
            "square": A * A,
            "defect": iota(regular(sin_fn(), domain=DOM)) - S,
            "zero": S - S,
        }[label]
        orders = (0,) if label == "defect" else (0, 1)
        direct_mod = is_moderate(R, q3_seq, k_grid=ks, orders=orders).verdict
        direct_neg = is_negligible(R, q3_seq, k_grid=ks, orders=orders).verdict
        rep = pullback_seq(R, q3_seq, k_grid=ks)
        seq_side = classify_seq(rep, orders=orders)
        assert seq_side.moderate == direct_mod
        assert seq_side.negligible == direct_neg

    @pytest.mark.parametrize("label,negligible", [("pointmass", False), ("zero", True)])
    def test_both_models_judge_the_region_of_the_family(self, label, negligible):
        # the family lives on a part of the element's domain; every
        # classifier takes its region from the family, not the element
        seq = standard_sequence(Domain.interval(0.5, 2.0), make_mollifier(3))
        A = iota(delta(1.2, domain=DOM))
        R = A if label == "pointmass" else A - A
        mod = is_moderate(R, seq, k_grid=SHORT_KS)
        neg = is_negligible(R, seq, k_grid=SHORT_KS)
        seq_side = classify_seq(pullback_seq(R, seq, k_grid=SHORT_KS))
        assert mod.region == neg.region == seq_side.region
        assert (mod.verdict, neg.verdict) == (seq_side.moderate, seq_side.negligible)
        assert (mod.verdict, neg.verdict) == (True, negligible)
