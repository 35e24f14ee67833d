import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import losses, topology
from connectogen.data import devectorize
from connectogen.errors import DimensionError, PreconditionError

import oracles


def col(values):
    return ad.constant(np.asarray(values, dtype=float).reshape(-1, 1))


def stack(blocks):
    return col(np.concatenate([np.ravel(b) for b in blocks]))


class TestAdversarialLoss:
    def test_zero_critic(self):
        out = losses.adversarial_loss(col([0, 0]), col([0, 0, 0, 0]))
        assert out.item() == 0.0

    def test_perfect_critic_separation(self):
        out = losses.adversarial_loss(col([1, 1]), col([0, 0, 0, 0]))
        assert out.item() == -1.0

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(0)
        real = rng.standard_normal(6)
        fakes = [rng.standard_normal(6) for _ in range(3)]
        out = losses.adversarial_loss(col(real), stack(fakes))
        expected = -real.mean() + np.mean([f.mean() for f in fakes])
        assert abs(out.item() - expected) < 1e-12

    def test_no_targets_rejected(self):
        with pytest.raises(PreconditionError):
            losses.adversarial_loss(col([0.0]), ad.constant(np.zeros((0, 1))))

    def test_fakes_must_stack_source_blocks(self):
        with pytest.raises(DimensionError):
            losses.adversarial_loss(col([0.0, 0.0]), col([0.0, 0.0, 0.0]))


class TestDomainClassificationLoss:
    def test_perfect_classifier(self):
        out = losses.domain_classification_loss(col([0, 0]), col([1, 1]), 1)
        assert out.item() == 0.0

    def test_half_probs_single_subject(self):
        out = losses.domain_classification_loss(col([0.5]), col([0.5]), 1)
        assert abs(out.item() - 0.5) < 1e-15

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            fake = col(rng.uniform(size=8))
            real = col(rng.uniform(size=8))
            assert losses.domain_classification_loss(fake, real, 2).item() >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            losses.domain_classification_loss(col([0.5]), col([0.5, 0.5]), 1)
        with pytest.raises(DimensionError):  # 3 rows are not 2 view blocks
            losses.domain_classification_loss(col([0.5] * 3), col([0.5] * 3), 2)


class TestInfoMaxLoss:
    def test_confident_probs_vanish(self):
        out = losses.info_max_loss(col([1.0 - 1e-9]), 1)
        assert out.item() < 1e-6

    def test_half_prob_is_ln2(self):
        out = losses.info_max_loss(col([0.5]), 1)
        assert abs(out.item() - np.log(2.0)) < 1e-10

    def test_monotone_decreasing_in_probs(self):
        values = [losses.info_max_loss(col([p]), 1).item() for p in (0.2, 0.5, 0.9)]
        assert values[0] > values[1] > values[2]

    def test_gradient_flows_through_clip(self):
        p = ad.parameter([[0.5]])
        with ad.Tape() as tape:
            loss = losses.info_max_loss(p, 1)
        g = ad.backward(tape, loss)[p.node_id].data
        assert abs(g[0, 0] + 2.0) < 1e-9  # d(-ln p)/dp = -1/p = -2

    def test_views_sum(self):
        # two views at 0.5 score 2 ln 2
        assert abs(losses.info_max_loss(col([0.5, 0.5]), 2).item() - 2 * np.log(2.0)) < 1e-10

    def test_no_views_rejected(self):
        with pytest.raises(PreconditionError):
            losses.info_max_loss(col([0.5]), 0)


class TestStackedLossesMatchPerViewOracles:
    """Each stacked loss against the per-view loop it replaces, in value and
    in the gradient w.r.t. every stacked input, within 1e-12 relative."""

    @staticmethod
    def _check(stacked, per_view, inputs):
        params = [ad.parameter(x) for x in inputs]
        results = []
        for build in (stacked, per_view):
            with ad.Tape() as tape:
                loss = build(*params)
            grads = ad.backward(tape, loss)
            results.append((loss.item(), [grads[p.node_id].data for p in params]))
        (value, grads), (ref_value, ref_grads) = results
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_all_four(self, k):
        rng = np.random.default_rng(20 + k)
        n = 7

        def blocks(x):
            return oracles.split_rows(x, n)

        source = rng.standard_normal((n, 1))
        fakes = rng.standard_normal((k * n, 1))
        self._check(losses.adversarial_loss,
                    lambda s, f: oracles.adversarial_loss_per_view(s, blocks(f)),
                    [source, fakes])
        self._check(losses.generator_fooling_term,
                    lambda f: oracles.generator_fooling_term_per_view(blocks(f)), [fakes])
        probs_fake = rng.uniform(0.05, 0.95, size=(k * n, 1))
        probs_real = rng.uniform(0.05, 0.95, size=(k * n, 1))
        self._check(lambda f, r: losses.domain_classification_loss(f, r, k),
                    lambda f, r: oracles.domain_classification_loss_per_view(
                        blocks(f), blocks(r)), [probs_fake, probs_real])
        self._check(lambda p: losses.info_max_loss(p, k),
                    lambda p: oracles.info_max_loss_per_view(blocks(p)), [probs_fake])


class TestGradientPenalty:
    """The exact penalty; ``row_norms`` maps projected mixes to the row norms
    of d(critic)/d(input)."""

    def _linear_critic_norms(self, w: ad.Tensor):
        # the critic x @ w has input gradient w^T on every row, of norm ||w||
        norm_w = ad.sqrt(ad.matmul(ad.transpose(w), w))
        return lambda mix: ad.matmul(ad.constant(np.ones((mix.shape[0], 1))), norm_w)

    def test_constant_critic_zero(self):
        row_norms = lambda mix: ad.constant(np.zeros((mix.shape[0], 1)))
        rng = np.random.default_rng(2)
        src = ad.constant(rng.uniform(size=(40, 12)))
        fakes = ad.constant(rng.uniform(size=(40, 12)))
        out = losses.gradient_penalty(row_norms, src, fakes, sigma=5.0, rng=rng)
        assert out.item() == 0.0

    def test_linear_critic_below_sigma_zero(self):
        rng = np.random.default_rng(3)
        sigma = 5.0
        w = rng.standard_normal(20)
        w *= 0.8 * sigma / np.linalg.norm(w)
        src = ad.constant(rng.uniform(size=(60, 20)))
        fakes = ad.constant(rng.uniform(size=(60, 20)))
        row_norms = self._linear_critic_norms(ad.constant(w.reshape(-1, 1)))
        out = losses.gradient_penalty(row_norms, src, fakes, sigma=sigma, rng=rng)
        assert out.item() == 0.0

    def test_linear_critic_above_sigma_near_one(self):
        # closed form: grad == w everywhere, so the penalty is (||w|| - sigma)^2 = 1
        rng = np.random.default_rng(4)
        sigma = 5.0
        w = rng.standard_normal(40)
        w *= (sigma + 1.0) / np.linalg.norm(w)
        src = ad.constant(rng.uniform(size=(30, 40)))
        fakes = ad.constant(rng.uniform(size=(30, 40)))
        row_norms = self._linear_critic_norms(ad.constant(w.reshape(-1, 1)))
        out = losses.gradient_penalty(row_norms, src, fakes, sigma=sigma, rng=rng)
        assert abs(out.item() - 1.0) < 1e-9

    def test_sigma_positive_required(self):
        rng = np.random.default_rng(6)
        src = ad.constant(rng.uniform(size=(4, 3)))
        for sigma in (0.0, -1.0):
            with pytest.raises(PreconditionError):
                losses.gradient_penalty(lambda mix: mix, src, src, sigma=sigma, rng=rng)

    def test_penalty_differentiable_through_critic_params(self):
        rng = np.random.default_rng(7)
        w = ad.parameter(rng.standard_normal((6, 1)) * 4.0)
        src = ad.constant(rng.uniform(size=(50, 6)))
        fakes = ad.constant(rng.uniform(size=(50, 6)))
        with ad.Tape() as tape:
            out = losses.gradient_penalty(self._linear_critic_norms(w), src, fakes,
                                          sigma=1.0, rng=rng)
        assert out.item() > 0.0
        grads = ad.backward(tape, out)
        assert np.any(grads[w.node_id].data != 0.0)

    def test_penalty_differentiable_through_projections(self):
        # the mixes are tape ops on the projections, so the projecting weight
        # gets a gradient from them
        rng = np.random.default_rng(11)
        w1 = ad.parameter(rng.standard_normal((5, 3)))
        src, fakes = rng.uniform(size=(4, 5)), rng.uniform(size=(8, 5))
        with ad.Tape() as tape:
            out = losses.gradient_penalty(
                lambda mix: ad.sqrt(ad.matmul(ad.mul(mix, mix), ad.constant(np.ones((3, 1))))),
                ad.matmul(ad.constant(src), w1), ad.matmul(ad.constant(fakes), w1),
                sigma=1e-3, rng=rng)
        assert out.item() > 0.0
        assert np.any(ad.backward(tape, out)[w1.node_id].data != 0.0)

    def test_mixes_each_fake_block_with_the_source(self):
        rng = np.random.default_rng(8)
        src = rng.uniform(size=(4, 3))
        fakes = rng.uniform(size=(12, 3))
        seen = []
        losses.gradient_penalty(lambda mix: seen.append(mix.data) or mix,
                                ad.constant(src), ad.constant(fakes),
                                sigma=1.0, rng=np.random.default_rng(9))
        alpha = np.random.default_rng(9).uniform(size=(12, 1))
        expected = alpha * np.tile(src, (3, 1)) + (1.0 - alpha) * fakes
        assert np.array_equal(seen[0], expected)

    def test_fakes_must_stack_source_blocks(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DimensionError):
            losses.gradient_penalty(lambda mix: mix, ad.constant(rng.uniform(size=(4, 3))),
                                    ad.constant(rng.uniform(size=(10, 3))),
                                    sigma=1.0, rng=rng)


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

    @staticmethod
    def _loss(real, pred, r, k):
        """The loss given the real rows' centralities, as training gives them:
        from the EC op the loss runs on the predictions."""
        cent = topology.batched_eigenvector_rows(ad.constant(real), r).data
        return losses.topological_loss(real, pred, r, k, cent)

    def test_identical_predictions_zero(self):
        rng = np.random.default_rng(9)
        real = self._features(rng, 3, 5)
        out = self._loss(real, ad.constant(real.copy()), r=5, k=1)
        assert abs(out.item()) < 1e-9

    def test_global_term_hand_value(self):
        # mean(|[0,1] - [1,1]|) = 0.5, computed with the same primitive chain
        diff = ad.mean(oracles.absolute(ad.sub(ad.constant([[0.0, 1.0]]),
                                               ad.constant([[1.0, 1.0]]))))
        assert diff.item() == 0.5

    def test_global_term_isolated_by_ec_scale_invariance(self):
        real = np.array([[0.2, 0.4, 0.6]])
        pred = ad.constant(2.0 * real)  # same EC, doubled weights
        out = self._loss(real, pred, r=3, k=1)
        # local residual is bounded by the fixed-iteration EC tolerance
        assert abs(out.item() - 0.4) < 1e-4

    def test_ec_loss_decreases_along_interpolation(self):
        rng = np.random.default_rng(10)
        target = self._features(rng, 4, 6)
        start = self._features(rng, 4, 6)
        values = []
        for t in (0.0, 0.5, 1.0):
            pred = ad.constant(start * (1 - t) + target * t)
            values.append(self._loss(target, pred, r=6, k=1).item())
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-9

    def test_views_sum(self):
        # two stacked views score the sum of their one-view losses
        rng = np.random.default_rng(11)
        real = [self._features(rng, 3, 5) for _ in range(2)]
        pred = [self._features(rng, 3, 5) for _ in range(2)]
        out = self._loss(np.vstack(real), ad.constant(np.vstack(pred)), r=5, k=2)
        per_view = [self._loss(a, ad.constant(b), r=5, k=1).item()
                    for a, b in zip(real, pred)]
        assert abs(out.item() - sum(per_view)) < 1e-12

    def test_given_centralities_match_computed(self):
        rng = np.random.default_rng(12)
        real = self._features(rng, 4, 5)
        pred = ad.constant(self._features(rng, 4, 5))
        cent = topology.centralities(devectorize(real, 5))["ec"]
        given = losses.topological_loss(real, pred, r=5, k=2, real_centralities=cent)
        computed = self._loss(real, pred, r=5, k=2)
        assert given.item() == computed.item()

    def test_ec_gradient_reaches_predictions(self):
        rng = np.random.default_rng(13)
        real = self._features(rng, 3, 5)
        p = ad.parameter(self._features(rng, 3, 5))
        with ad.Tape() as tape:
            out = self._loss(real, p, r=5, k=1)
        g = ad.backward(tape, out)[p.node_id].data
        # the global term alone would give +-1/(n*f) on every entry
        assert not np.allclose(np.abs(g), 1.0 / g.size)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            self._loss(np.zeros((2, 3)), ad.constant(np.zeros((1, 3))), r=3, k=1)
        with pytest.raises(DimensionError):
            self._loss(np.zeros((3, 3)), ad.constant(np.zeros((3, 3))), r=3, k=2)


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
        out = losses.generator_fooling_term(stack(critic_vals))
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

    @pytest.mark.parametrize("name", ["lambda_gdc", "lambda_gp", "lambda_top",
                                      "lambda_inf", "sigma_gp"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(PreconditionError, match="finite"):
            losses.LossWeights(**{name: value})
