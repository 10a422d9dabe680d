"""Mixture-of-experts head tests: degeneracies, gating, agent isolation."""

import numpy as np
import pytest

from pansurv import autodiff as ad
from pansurv import moe

from conftest import gradcheck

D = 16
NB = 4


@pytest.fixture
def feats(rng):
    return {
        "fused_p": ad.Tensor(rng.standard_normal((4, D))),
        "fused_g": ad.Tensor(rng.standard_normal((4, D))),
        "txt": ad.Tensor(rng.standard_normal((4, D))),
        "cancer": ad.Tensor(rng.standard_normal(D)),
        "diag": ad.Tensor(rng.standard_normal(D)),
    }


def slice_expert_params(params: dict, index: int) -> dict:
    """A single expert's weights as an N_e=1 stacked dict (copies)."""
    out = dict(params)
    for key, t in params.items():
        if key.startswith("experts."):
            out[key] = ad.Tensor(t.data[index:index + 1].copy(),
                                 requires_grad=t.requires_grad, name=t.name)
    return out


def full_params(rng, n_experts, randomize_heads=True):
    p = moe.init_expert_params(rng, D, NB, n_experts)
    p.update(moe.init_gate_params(D, n_experts))
    p.update(moe.init_agent_params(D, 5))
    if randomize_heads:
        p["experts.cls_w"].data[:] = rng.standard_normal(p["experts.cls_w"].data.shape) * 0.3
        p["experts.cls_b"].data[:] = rng.standard_normal(p["experts.cls_b"].data.shape) * 0.1
        p["gate.w"].data[:] = rng.standard_normal(p["gate.w"].data.shape) * 0.3
    return p


class TestExpertForward:
    def test_zero_classifier_gives_zero_logits(self, rng, feats):
        p = full_params(rng, 3, randomize_heads=False)
        single = slice_expert_params(p, 1)
        out = moe.expert_forward(feats["fused_p"], feats["fused_g"], feats["txt"], single)
        np.testing.assert_array_equal(out.data, np.zeros(NB))

    def test_output_length(self, rng, feats):
        p = full_params(rng, 2)
        out = moe.expert_forward(feats["fused_p"], feats["fused_g"], feats["txt"],
                                 slice_expert_params(p, 0))
        assert out.data.shape == (NB,)

    def test_gradient_wrt_text(self, rng):
        p = full_params(rng, 1)
        fp = rng.standard_normal((4, D))
        fg = rng.standard_normal((4, D))
        w = rng.standard_normal(NB)

        def build(t):
            out = moe.expert_forward(ad.Tensor(fp), ad.Tensor(fg), t["txt"], p)
            return ad.tsum(ad.mul(out, w))

        gradcheck(build, {"txt": rng.standard_normal((4, D))}, tol=1e-4)


class TestGate:
    def test_zero_init_uniform(self, rng, feats):
        p = full_params(rng, 5, randomize_heads=False)
        w = moe.gate_weights(feats["cancer"], feats["diag"], p)
        np.testing.assert_allclose(w.data, np.full(5, 0.2), atol=1e-15)

    def test_probability_vector(self, rng, feats):
        for n_e in (1, 3, 10):
            p = full_params(rng, n_e)
            w = moe.gate_weights(feats["cancer"], feats["diag"], p)
            assert abs(w.data.sum() - 1.0) < 1e-12
            assert np.all(w.data > 0) and np.all(w.data < 1 + 1e-15)

    def test_distinct_embeddings_distinct_weights(self, rng, feats):
        p = full_params(rng, 4)
        w1 = moe.gate_weights(feats["cancer"], feats["diag"], p)
        w2 = moe.gate_weights(ad.Tensor(rng.standard_normal(D)), feats["diag"], p)
        assert np.abs(w1.data - w2.data).max() > 1e-6


class TestGmoeHazard:
    def test_single_expert_bit_identical(self, rng, feats):
        p = full_params(rng, 1)
        out = moe.gmoe_hazard(feats["fused_p"], feats["fused_g"], feats["txt"],
                              feats["cancer"], feats["diag"], p)
        logits = moe.expert_forward(feats["fused_p"], feats["fused_g"], feats["txt"], p)
        expected = ad.sigmoid(logits).data
        assert np.array_equal(out.hazards.data, expected)
        np.testing.assert_array_equal(out.curve.survival,
                                      np.cumprod(1 - out.curve.hazards))

    def test_identical_experts_gate_independent(self, rng, feats):
        p = full_params(rng, 3)
        for key in list(p):
            if key.startswith("experts."):
                p[key].data[:] = np.repeat(p[key].data[:1], 3, axis=0)
        out1 = moe.gmoe_hazard(feats["fused_p"], feats["fused_g"], feats["txt"],
                               feats["cancer"], feats["diag"], p)
        p["gate.w"].data[:] = rng.standard_normal(p["gate.w"].data.shape)
        p["gate.b"].data[:] = rng.standard_normal(p["gate.b"].data.shape)
        out2 = moe.gmoe_hazard(feats["fused_p"], feats["fused_g"], feats["txt"],
                               feats["cancer"], feats["diag"], p)
        assert not np.array_equal(out1.gate.data, out2.gate.data)
        np.testing.assert_allclose(out1.hazards.data, out2.hazards.data, atol=1e-12)

    def test_three_experts_match_manual_mix(self, rng, feats):
        p = full_params(rng, 3)
        out = moe.gmoe_hazard(feats["fused_p"], feats["fused_g"], feats["txt"],
                              feats["cancer"], feats["diag"], p)
        manual_logits = np.stack([
            moe.expert_forward(feats["fused_p"], feats["fused_g"], feats["txt"],
                               slice_expert_params(p, e)).data
            for e in range(3)])
        np.testing.assert_allclose(out.expert_logits.data, manual_logits, atol=1e-12)
        mixed = out.gate.data @ manual_logits
        np.testing.assert_allclose(out.hazards.data, 1 / (1 + np.exp(-mixed)), atol=1e-12)

    def test_curve_invariants_any_params(self, rng, feats):
        for n_e in (1, 2, 5):
            p = full_params(rng, n_e)
            out = moe.gmoe_hazard(feats["fused_p"], feats["fused_g"], feats["txt"],
                                  feats["cancer"], feats["diag"], p)
            s = out.curve.survival
            assert abs(s[0] - (1 - out.curve.hazards[0])) < 1e-15
            assert np.all(np.diff(s) <= 1e-15)
            assert np.all((s >= 0) & (s <= 1))


class TestAgent:
    def test_logit_count_matches_cancer_count(self, rng, feats):
        p = full_params(rng, 2)
        p["agent.w"].data[:] = rng.standard_normal(p["agent.w"].data.shape)
        out = moe.agent_logits(feats["fused_p"], feats["fused_g"], p)
        assert out.data.shape == (5,)

    def test_row_permutation_invariance(self, rng, feats):
        p = full_params(rng, 2)
        p["agent.w"].data[:] = rng.standard_normal(p["agent.w"].data.shape)
        out1 = moe.agent_logits(feats["fused_p"], feats["fused_g"], p)
        perm = rng.permutation(4)
        out2 = moe.agent_logits(ad.Tensor(feats["fused_p"].data[perm]),
                                ad.Tensor(feats["fused_g"].data[perm]), p)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-14)

    def test_gradient(self, rng):
        p = full_params(rng, 2)
        p["agent.w"].data[:] = rng.standard_normal(p["agent.w"].data.shape)
        w = rng.standard_normal(5)

        def build(t):
            return ad.tsum(ad.mul(moe.agent_logits(t["fp"], t["fg"], p), w))

        gradcheck(build, {"fp": np.random.default_rng(3).standard_normal((4, D)),
                          "fg": np.random.default_rng(4).standard_normal((4, D))},
                  tol=1e-5)

    def test_no_text_input_surface(self, rng, feats):
        # structural exclusion: the signature takes fused rows only
        import inspect
        sig = inspect.signature(moe.agent_logits)
        assert "txt" not in sig.parameters
