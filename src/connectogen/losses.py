"""Adversarial, classification, penalty, topological, and info-max losses.

All functions build 1x1 tensors from autodiff primitives, so they are
differentiable wherever their inputs are tape-tracked.  The k target views
arrive stacked: critic scores, probabilities and feature rows are (k*n, .)
tensors of k equal view blocks, so a loss costs the same few ops for any k
(a sum over views of per-view means is k times the stack's mean).
:func:`discriminator_loss` and :func:`generator_loss` sum their
per-cluster parts with the objectives' weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import topology
from .errors import DimensionError, PreconditionError

PROB_FLOOR = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Weighting of the loss components; sigma_gp defaults to the number of
    target views when left unset."""

    lambda_gdc: float = 1.0
    lambda_gp: float = 0.1
    lambda_top: float = 0.1
    lambda_inf: float = 1.0
    sigma_gp: float | None = None

    def __post_init__(self):
        for name in ("lambda_gdc", "lambda_gp", "lambda_top", "lambda_inf"):
            if not 0 <= getattr(self, name) < math.inf:
                raise PreconditionError(f"{name} must be finite and >= 0")
        if self.sigma_gp is not None and not 0 < self.sigma_gp < math.inf:
            raise PreconditionError("sigma_gp must be finite and > 0")

    def resolved_sigma(self, k: int) -> float:
        return float(self.sigma_gp) if self.sigma_gp is not None else float(k)


def _check_views(stack: ad.Tensor, k: int, name: str) -> None:
    if k < 1 or stack.shape[0] == 0:
        raise PreconditionError(f"{name} needs at least one view")
    if stack.shape[0] % k:
        raise DimensionError(f"{name}: {stack.shape[0]} rows do not split into {k} views")


def adversarial_loss(critic_real_source: ad.Tensor, critic_fakes: ad.Tensor) -> ad.Tensor:
    """-E[D(real source)] + (1/k) * sum_i E[D(fake_i)].

    ``critic_fakes`` stacks the k views' critic scores, (k*n, 1); with
    equal blocks the mean over views of their means is the stack's mean.
    """
    n = critic_real_source.shape[0]
    if critic_fakes.shape[0] == 0:
        raise PreconditionError("adversarial loss needs at least one target view")
    if n == 0 or critic_fakes.shape[0] % n:
        raise DimensionError(
            f"{critic_fakes.shape[0]} fake rows are not blocks of {n} source rows")
    return ad.sub(ad.mean(critic_fakes), ad.mean(critic_real_source))


def domain_classification_loss(probs_fake: ad.Tensor, probs_real: ad.Tensor,
                               k: int) -> ad.Tensor:
    """Per-view MSE against label 0 for fakes and 1 for real targets, summed
    over the k views stacked in each (k*n, 1) input."""
    if probs_fake.shape != probs_real.shape:
        raise DimensionError(
            f"fake {probs_fake.shape} vs real {probs_real.shape} probability stacks")
    _check_views(probs_fake, k, "domain classification loss")
    fake_term = ad.mean(ad.mul(probs_fake, probs_fake))
    miss = ad.sub(probs_real, ad.constant(np.ones(probs_real.shape)))
    real_term = ad.mean(ad.mul(miss, miss))
    return ad.scale(ad.add(fake_term, real_term), k)


def info_max_loss(probs_fake: ad.Tensor, k: int) -> ad.Tensor:
    """Sum over the k views stacked in (k*n, 1) of mean binary cross-entropy
    against label 1."""
    _check_views(probs_fake, k, "info-max loss")
    safe = ad.clip(probs_fake, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return ad.scale(ad.mean(ad.log(safe)), -float(k))


def gradient_penalty(row_norms, p_source: ad.Tensor, p_fakes: ad.Tensor,
                     sigma: float, rng: np.random.Generator) -> ad.Tensor:
    """Hinged squared excess of the critic's input-gradient norm.

    ``p_source`` is the (n, h) first-layer projection of a source batch and
    ``p_fakes`` the (k*n, h) projection of its k generated views.  The
    critic is evaluated at per-row uniform mixes alpha*source +
    (1-alpha)*fake; the projection is linear, so the mixes are formed from
    the projections.  ``row_norms`` maps the projected mixes to the (k*n, 1)
    norms of the critic's gradient w.r.t. the unprojected rows, as a tensor
    differentiable in the critic's parameters.  The result is
    (max{0, mean_rows ||grad|| - sigma})^2.
    """
    if sigma <= 0:
        raise PreconditionError(f"sigma must be > 0, got {sigma}")
    n, h = p_source.shape
    if p_fakes.shape[1] != h or p_fakes.shape[0] % n:
        raise DimensionError(f"source {p_source.shape} vs fakes {p_fakes.shape}")
    k = p_fakes.shape[0] // n
    alpha = np.broadcast_to(rng.uniform(size=(k * n, 1)), (k * n, h))
    mix = ad.add(ad.mul(ad.constant(alpha), ad.vstack([p_source] * k)),
                 ad.mul(ad.constant(1.0 - alpha), p_fakes))
    est = ad.mean(row_norms(mix))
    hinge = ad.relu(ad.sub(est, ad.constant([[sigma]])))
    return ad.mul(hinge, hinge)


def discriminator_loss(parts: list[tuple[ad.Tensor, ad.Tensor, ad.Tensor]],
                       weights: LossWeights) -> ad.Tensor:
    """Sum over clusters of L_adv + lambda_gp * L_gp + lambda_gdc * L_gdc."""
    return _cluster_sum(parts, weights.lambda_gp, weights.lambda_gdc, "discriminator")


def _cluster_sum(parts: list[tuple[ad.Tensor, ad.Tensor, ad.Tensor]],
                 lambda_b: float, lambda_c: float, name: str) -> ad.Tensor:
    """Sum over the clusters' (a, b, c) of a + lambda_b * b + lambda_c * c,
    each term and the running sum added in cluster order."""
    if not parts:
        raise PreconditionError(f"{name} loss needs at least one cluster")
    loss = None
    for a, b, c in parts:
        term = ad.add(a, ad.add(ad.scale(b, lambda_b), ad.scale(c, lambda_c)))
        loss = term if loss is None else ad.add(loss, term)
    return loss


def topological_loss(real_features: np.ndarray, pred_features: ad.Tensor, r: int,
                     k: int, real_centralities: np.ndarray) -> ad.Tensor:
    """Eigenvector-centrality MAE plus global feature MAE, summed over views.

    ``real_features`` and ``pred_features`` stack the k views' (n, f) blocks
    into (k*n, f); ``real_centralities`` is the real graphs' matching (k*n, r)
    stack.  The local term is differentiated at the eigenvector's fixed
    point (see :func:`topology.batched_eigenvector_rows`).  Every op here
    keeps its inputs by reference, so none of the three stacks may change
    before the backward.
    """
    if tuple(real_features.shape) != pred_features.shape:
        raise DimensionError(
            f"real {real_features.shape} vs predicted {pred_features.shape} stacks")
    if k < 1 or real_features.shape[0] % k:
        raise DimensionError(f"{real_features.shape[0]} rows do not split into {k} views")
    # sum over views of per-view means == k * mean over the stack
    global_term = ad.scale(ad.mean_abs_diff(pred_features, real_features), k)
    pred_cent = topology.batched_eigenvector_rows(pred_features, r)
    local_term = ad.scale(ad.mean_abs_diff(pred_cent, real_centralities), k)
    return ad.add(local_term, global_term)


def generator_fooling_term(critic_fakes: ad.Tensor) -> ad.Tensor:
    """-(1/k) * sum_i E[D(fake_i)], the mean over the (k*n, 1) stack."""
    if critic_fakes.shape[0] == 0:
        raise PreconditionError("fooling term needs at least one view")
    return ad.scale(ad.mean(critic_fakes), -1.0)


def generator_loss(parts: list[tuple[ad.Tensor, ad.Tensor, ad.Tensor]],
                   weights: LossWeights) -> ad.Tensor:
    """Sum over clusters of fooling + lambda_top * L_top + lambda_inf * L_inf."""
    return _cluster_sum(parts, weights.lambda_top, weights.lambda_inf, "generator")
