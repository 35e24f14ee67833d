import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import losses, topology
from connectogen.data import devectorize
from connectogen.errors import DimensionError, PreconditionError


def col(values):
    return ad.constant(np.asarray(values, dtype=float).reshape(-1, 1))


class TestAdversarialLoss:
    def test_zero_critic(self):
        out = losses.adversarial_loss(col([0, 0]), [col([0, 0]), col([0, 0])])
        assert out.item() == 0.0

    def test_perfect_critic_separation(self):
        out = losses.adversarial_loss(col([1, 1]), [col([0, 0]), col([0, 0])])
        assert out.item() == -1.0

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(0)
        real = rng.standard_normal(6)
        fakes = [rng.standard_normal(6) for _ in range(3)]
        out = losses.adversarial_loss(col(real), [col(f) for f in fakes])
        expected = -real.mean() + np.mean([f.mean() for f in fakes])
        assert abs(out.item() - expected) < 1e-12

    def test_no_targets_rejected(self):
        with pytest.raises(PreconditionError):
            losses.adversarial_loss(col([0.0]), [])


class TestDomainClassificationLoss:
    def test_perfect_classifier(self):
        out = losses.domain_classification_loss([col([0, 0])], [col([1, 1])])
        assert out.item() == 0.0

    def test_half_probs_single_subject(self):
        out = losses.domain_classification_loss([col([0.5])], [col([0.5])])
        assert abs(out.item() - 0.5) < 1e-15

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            fake = [col(rng.uniform(size=4)) for _ in range(2)]
            real = [col(rng.uniform(size=4)) for _ in range(2)]
            assert losses.domain_classification_loss(fake, real).item() >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            losses.domain_classification_loss([col([0.5])], [])


class TestInfoMaxLoss:
    def test_confident_probs_vanish(self):
        out = losses.info_max_loss([col([1.0 - 1e-9])])
        assert out.item() < 1e-6

    def test_half_prob_is_ln2(self):
        out = losses.info_max_loss([col([0.5])])
        assert abs(out.item() - np.log(2.0)) < 1e-10

    def test_monotone_decreasing_in_probs(self):
        values = [losses.info_max_loss([col([p])]).item() for p in (0.2, 0.5, 0.9)]
        assert values[0] > values[1] > values[2]

    def test_gradient_flows_through_clip(self):
        p = ad.parameter([[0.5]])
        with ad.Tape() as tape:
            loss = losses.info_max_loss([p])
        g = ad.backward(tape, loss)[p.node_id].data
        assert abs(g[0, 0] + 2.0) < 1e-9  # d(-ln p)/dp = -1/p = -2


class TestGradientPenalty:
    """The exact penalty; ``input_gradient`` maps critic inputs to d(critic)/d(input)."""

    def _linear_critic_gradient(self, w: ad.Tensor):
        # the critic f @ w has input gradient w^T on every row
        return lambda f: ad.matmul(ad.constant(np.ones((f.shape[0], 1))), ad.transpose(w))

    def test_constant_critic_zero(self):
        input_gradient = lambda f: ad.constant(np.zeros(f.shape))
        rng = np.random.default_rng(2)
        src = ad.constant(rng.uniform(size=(40, 12)))
        fakes = ad.constant(rng.uniform(size=(40, 12)))
        out = losses.gradient_penalty(input_gradient, src, fakes, sigma=5.0, rng=rng)
        assert out.item() == 0.0

    def test_linear_critic_below_sigma_zero(self):
        rng = np.random.default_rng(3)
        sigma = 5.0
        w = rng.standard_normal(20)
        w *= 0.8 * sigma / np.linalg.norm(w)
        src = ad.constant(rng.uniform(size=(60, 20)))
        fakes = ad.constant(rng.uniform(size=(60, 20)))
        critic_grad = self._linear_critic_gradient(ad.constant(w.reshape(-1, 1)))
        out = losses.gradient_penalty(critic_grad, src, fakes, sigma=sigma, rng=rng)
        assert out.item() == 0.0

    def test_linear_critic_above_sigma_near_one(self):
        # closed form: grad == w everywhere, so the penalty is (||w|| - sigma)^2 = 1
        rng = np.random.default_rng(4)
        sigma = 5.0
        w = rng.standard_normal(40)
        w *= (sigma + 1.0) / np.linalg.norm(w)
        src = ad.constant(rng.uniform(size=(30, 40)))
        fakes = ad.constant(rng.uniform(size=(30, 40)))
        critic_grad = self._linear_critic_gradient(ad.constant(w.reshape(-1, 1)))
        out = losses.gradient_penalty(critic_grad, src, fakes, sigma=sigma, rng=rng)
        assert abs(out.item() - 1.0) < 1e-9

    def test_sigma_positive_required(self):
        rng = np.random.default_rng(6)
        src = ad.constant(rng.uniform(size=(4, 3)))
        for sigma in (0.0, -1.0):
            with pytest.raises(PreconditionError):
                losses.gradient_penalty(lambda f: f, src, src, sigma=sigma, rng=rng)

    def test_penalty_differentiable_through_critic_params(self):
        rng = np.random.default_rng(7)
        w = ad.parameter(rng.standard_normal((6, 1)) * 4.0)
        src = ad.constant(rng.uniform(size=(50, 6)))
        fakes = ad.constant(rng.uniform(size=(50, 6)))
        with ad.Tape() as tape:
            out = losses.gradient_penalty(self._linear_critic_gradient(w), src, fakes,
                                          sigma=1.0, rng=rng)
        assert out.item() > 0.0
        grads = ad.backward(tape, out)
        assert np.any(grads[w.node_id].data != 0.0)


class TestDiscriminatorLoss:
    def test_weight_zeroing(self):
        weights = losses.LossWeights(lambda_gp=0.0, lambda_gdc=0.0)
        parts = [(col([1.0]), col([9.0]), col([9.0])),
                 (col([2.0]), col([9.0]), col([9.0]))]
        parts = [(ad.mean(a), ad.mean(b), ad.mean(c)) for a, b, c in parts]
        assert losses.discriminator_loss(parts, weights).item() == 3.0

    def test_known_components(self):
        weights = losses.LossWeights(lambda_gp=0.1, lambda_gdc=1.0)
        part = (col([1.0]), col([2.0]), col([3.0]))
        part = tuple(ad.mean(x) for x in part)
        out = losses.discriminator_loss([part], weights)
        assert abs(out.item() - 4.2) < 1e-12

    def test_matches_component_recomputation(self):
        rng = np.random.default_rng(8)
        weights = losses.LossWeights(lambda_gp=0.37, lambda_gdc=2.5)
        parts, expected = [], 0.0
        for _ in range(3):
            a, g, d = rng.standard_normal(3)
            parts.append((ad.constant([[a]]), ad.constant([[g]]), ad.constant([[d]])))
            expected += a + 0.37 * g + 2.5 * d
        assert abs(losses.discriminator_loss(parts, weights).item() - expected) < 1e-12


class TestTopologicalLoss:
    def _features(self, rng, n, r):
        f = r * (r - 1) // 2
        return rng.uniform(0.1, 1.0, size=(n, f))

    def test_identical_predictions_zero(self):
        rng = np.random.default_rng(9)
        real = [self._features(rng, 3, 5)]
        preds = [ad.constant(real[0].copy())]
        out = losses.topological_loss(real, preds, r=5, mode="ec")
        assert abs(out.item()) < 1e-9

    def test_global_term_hand_value(self):
        # mean(|[0,1] - [1,1]|) = 0.5, computed with the same primitive chain
        diff = ad.mean(ad.absolute(ad.sub(ad.constant([[0.0, 1.0]]),
                                          ad.constant([[1.0, 1.0]]))))
        assert diff.item() == 0.5

    def test_global_term_isolated_by_ec_scale_invariance(self):
        real = [np.array([[0.2, 0.4, 0.6]])]
        pred = [ad.constant(2.0 * real[0])]  # same EC, doubled weights
        out = losses.topological_loss(real, pred, r=3, mode="ec")
        # local residual is bounded by the fixed-iteration EC tolerance
        assert abs(out.item() - 0.4) < 1e-4

    def test_ec_loss_decreases_along_interpolation(self):
        rng = np.random.default_rng(10)
        real = [self._features(rng, 4, 6)]
        target = real[0]
        start = self._features(rng, 4, 6)
        values = []
        for t in (0.0, 0.5, 1.0):
            pred = [ad.constant(start * (1 - t) + target * t)]
            values.append(losses.topological_loss(real, pred, r=6, mode="ec").item())
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-9

    def test_cc_mode_detached_local_term(self):
        rng = np.random.default_rng(11)
        real = [self._features(rng, 3, 5)]
        p = ad.parameter(self._features(rng, 3, 5))
        with ad.Tape() as tape:
            out = losses.topological_loss(real, [p], r=5, mode="cc")
        g = ad.backward(tape, out)[p.node_id].data
        # gradient comes from the global term only: +-1/(n*f) signs
        assert np.allclose(np.abs(g), 1.0 / g.size)

    def test_bc_mode_value_matches_manual(self):
        rng = np.random.default_rng(12)
        real = [self._features(rng, 2, 5)]
        pred_arr = self._features(rng, 2, 5)
        out = losses.topological_loss(real, [ad.constant(pred_arr)], r=5, mode="bc")
        real_bc = np.stack([topology.betweenness(devectorize(v, 5)) for v in real[0]])
        pred_bc = np.stack([topology.betweenness(devectorize(v, 5)) for v in pred_arr])
        manual = np.abs(real_bc - pred_bc).mean() + np.abs(real[0] - pred_arr).mean()
        assert abs(out.item() - manual) < 1e-9

    def test_unknown_mode(self):
        with pytest.raises(PreconditionError):
            losses.topological_loss([np.zeros((1, 3))], [ad.constant(np.zeros((1, 3)))],
                                    r=3, mode="pagerank")


class TestGeneratorLoss:
    def test_weight_zeroing_leaves_fooling_term(self):
        weights = losses.LossWeights(lambda_top=0.0, lambda_inf=0.0)
        part = (col([-0.5]), col([7.0]), col([7.0]))
        out = losses.generator_loss([part], weights)
        assert out.item() == -0.5

    def test_known_components(self):
        weights = losses.LossWeights(lambda_top=0.1, lambda_inf=1.0)
        part = (col([-0.5]), col([2.0]), col([0.7]))
        out = losses.generator_loss([part], weights)
        assert abs(out.item() - 0.4) < 1e-12

    def test_matches_component_recomputation(self):
        rng = np.random.default_rng(13)
        weights = losses.LossWeights(lambda_top=0.45, lambda_inf=1.3)
        parts, expected = [], 0.0
        for _ in range(4):
            a, t, i = rng.standard_normal(3)
            parts.append((ad.constant([[a]]), ad.constant([[t]]), ad.constant([[i]])))
            expected += a + 0.45 * t + 1.3 * i
        assert abs(losses.generator_loss(parts, weights).item() - expected) < 1e-12

    def test_fooling_term_formula(self):
        rng = np.random.default_rng(14)
        critic_vals = [rng.standard_normal(5) for _ in range(3)]
        out = losses.generator_fooling_term([col(v) for v in critic_vals])
        expected = -np.mean([v.mean() for v in critic_vals])
        assert abs(out.item() - expected) < 1e-12


class TestLossWeights:
    def test_defaults(self):
        w = losses.LossWeights()
        assert (w.lambda_gdc, w.lambda_gp, w.lambda_top, w.lambda_inf) == (1, 0.1, 0.1, 1)
        assert w.resolved_sigma(5) == 5.0

    def test_explicit_sigma(self):
        assert losses.LossWeights(sigma_gp=2.5).resolved_sigma(5) == 2.5

    def test_negative_weight_rejected(self):
        with pytest.raises(PreconditionError):
            losses.LossWeights(lambda_top=-0.1)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(PreconditionError):
            losses.LossWeights(sigma_gp=0.0)
