"""Adversarial, classification, penalty, topological, and info-max losses.

All functions build 1x1 tensors from autodiff primitives, so they are
differentiable wherever their inputs are tape-tracked.  Component lists are
ordered per target view; per-cluster totals follow the weighted sums of the
discriminator and generator objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import topology
from .data import devectorize
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
            if getattr(self, name) < 0:
                raise PreconditionError(f"{name} must be >= 0")
        if self.sigma_gp is not None and self.sigma_gp <= 0:
            raise PreconditionError("sigma_gp must be > 0")

    def resolved_sigma(self, k: int) -> float:
        return float(self.sigma_gp) if self.sigma_gp is not None else float(k)


def adversarial_loss(critic_real_source: ad.Tensor,
                     critic_fakes: list[ad.Tensor]) -> ad.Tensor:
    """-E[D(real source)] + (1/k) * sum_i E[D(fake_i)]."""
    k = len(critic_fakes)
    if k == 0:
        raise PreconditionError("adversarial loss needs at least one target view")
    loss = ad.scale(ad.mean(critic_real_source), -1.0)
    for critic_fake in critic_fakes:
        loss = ad.add(loss, ad.scale(ad.mean(critic_fake), 1.0 / k))
    return loss


def domain_classification_loss(probs_fake: list[ad.Tensor],
                               probs_real: list[ad.Tensor]) -> ad.Tensor:
    """Per-view MSE against label 0 for fakes and 1 for real targets, summed."""
    if len(probs_fake) != len(probs_real):
        raise DimensionError(
            f"{len(probs_fake)} fake vs {len(probs_real)} real probability blocks")
    if not probs_fake:
        raise PreconditionError("domain classification loss needs at least one view")
    loss = None
    for fake, real in zip(probs_fake, probs_real):
        fake_term = ad.mean(ad.mul(fake, fake))
        miss = ad.sub(real, ad.constant(np.ones(real.shape)))
        real_term = ad.mean(ad.mul(miss, miss))
        term = ad.add(fake_term, real_term)
        loss = term if loss is None else ad.add(loss, term)
    return loss


def info_max_loss(probs_fake: list[ad.Tensor]) -> ad.Tensor:
    """Sum over views of mean binary cross-entropy against label 1."""
    if not probs_fake:
        raise PreconditionError("info-max loss needs at least one view")
    loss = None
    for probs in probs_fake:
        safe = ad.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
        term = ad.scale(ad.mean(ad.log(safe)), -1.0)
        loss = term if loss is None else ad.add(loss, term)
    return loss


def interpolate_rows(f_source_tiled: ad.Tensor, f_fakes_stacked: ad.Tensor,
                     rng: np.random.Generator) -> ad.Tensor:
    """Per-row uniform mixing alpha*source + (1-alpha)*fake."""
    if f_source_tiled.shape != f_fakes_stacked.shape:
        raise DimensionError(
            f"source {f_source_tiled.shape} vs fakes {f_fakes_stacked.shape}")
    n, f = f_source_tiled.shape
    alpha = rng.uniform(size=(n, 1))
    alpha_full = ad.constant(np.repeat(alpha, f, axis=1))
    one_minus = ad.constant(np.repeat(1.0 - alpha, f, axis=1))
    return ad.add(ad.mul(alpha_full, f_source_tiled), ad.mul(one_minus, f_fakes_stacked))


def gradient_penalty(input_gradient, f_source_tiled: ad.Tensor,
                     f_fakes_stacked: ad.Tensor, sigma: float,
                     rng: np.random.Generator) -> ad.Tensor:
    """Hinged squared excess of the critic's input-gradient norm.

    The critic is evaluated at per-row uniform mixes of source and fake rows;
    ``input_gradient`` returns its gradient w.r.t. those rows as a tensor
    that is differentiable in the critic's parameters.  The result is
    (max{0, mean_rows ||grad|| - sigma})^2.
    """
    if sigma <= 0:
        raise PreconditionError(f"sigma must be > 0, got {sigma}")
    mix = interpolate_rows(f_source_tiled, f_fakes_stacked, rng)
    grad = input_gradient(mix)
    est = ad.mean(ad.row_l2_norms(grad))
    hinge = ad.relu(ad.sub(est, ad.constant([[sigma]])))
    return ad.mul(hinge, hinge)


def discriminator_loss(parts: list[tuple[ad.Tensor, ad.Tensor, ad.Tensor]],
                       weights: LossWeights) -> ad.Tensor:
    """Sum over clusters of L_adv + lambda_gp * L_gp + lambda_gdc * L_gdc."""
    if not parts:
        raise PreconditionError("discriminator loss needs at least one cluster")
    loss = None
    for l_adv, l_gp, l_gdc in parts:
        term = ad.add(l_adv, ad.add(ad.scale(l_gp, weights.lambda_gp),
                                    ad.scale(l_gdc, weights.lambda_gdc)))
        loss = term if loss is None else ad.add(loss, term)
    return loss


def topological_loss(real_features: list[np.ndarray], pred_features: list[ad.Tensor],
                     r: int, mode: str = "ec", interp: str = topology.DISTANCE,
                     real_centralities: list[np.ndarray] | None = None,
                     ec_iters: int = 50) -> ad.Tensor:
    """Local centrality MAE plus global feature MAE, summed over views.

    With mode "ec" the local term differentiates through a fixed-iteration
    power method; "cc" and "bc" are piecewise constant in the weights, so
    their local term is evaluated on detached predictions and only the
    global term carries gradient.
    """
    mode = mode.lower()
    if mode not in ("cc", "bc", "ec"):
        raise PreconditionError(f"unknown centrality mode {mode!r}")
    if len(real_features) != len(pred_features) or not real_features:
        raise DimensionError("need matching nonempty real/pred view lists")
    k = len(real_features)
    for real, pred in zip(real_features, pred_features):
        if tuple(real.shape) != pred.shape:
            raise DimensionError(f"view shapes differ: {real.shape} vs {pred.shape}")

    pred_stack = ad.vstack(pred_features) if k > 1 else pred_features[0]
    real_stack = np.vstack(real_features)
    # sum over views of per-view means == k * mean over the stack
    global_term = ad.scale(ad.mean(ad.absolute(
        ad.sub(pred_stack, ad.constant(real_stack)))), k)

    if mode == "ec":
        if real_centralities is None:
            real_cent = np.vstack([
                topology.ec_or_zero(np.stack([devectorize(row, r) for row in real]))
                for real in real_features])
        else:
            real_cent = np.vstack(real_centralities)
        pred_cent = topology.batched_eigenvector_rows(pred_stack, r, iters=ec_iters)
        local_term = ad.scale(ad.mean(ad.absolute(
            ad.sub(pred_cent, ad.constant(real_cent)))), k)
    else:
        metric = topology.METRICS[mode]
        total = 0.0
        for view_idx, (real, pred) in enumerate(zip(real_features, pred_features)):
            if real_centralities is None:
                real_cent = metric(np.stack([devectorize(row, r) for row in real]), interp)
            else:
                real_cent = real_centralities[view_idx]
            pred_cent = metric(np.stack([devectorize(row, r) for row in pred.data]), interp)
            total += float(np.abs(real_cent - pred_cent).mean())
        local_term = ad.constant([[total]])

    return ad.add(local_term, global_term)


def generator_fooling_term(critic_fakes: list[ad.Tensor]) -> ad.Tensor:
    """-(1/k) * sum_i E[D(fake_i)]."""
    if not critic_fakes:
        raise PreconditionError("fooling term needs at least one view")
    k = len(critic_fakes)
    loss = None
    for critic_fake in critic_fakes:
        term = ad.scale(ad.mean(critic_fake), -1.0 / k)
        loss = term if loss is None else ad.add(loss, term)
    return loss


def generator_loss(parts: list[tuple[ad.Tensor, ad.Tensor, ad.Tensor]],
                   weights: LossWeights) -> ad.Tensor:
    """Sum over clusters of fooling + lambda_top * L_top + lambda_inf * L_inf."""
    if not parts:
        raise PreconditionError("generator loss needs at least one cluster")
    loss = None
    for fooling, l_top, l_inf in parts:
        term = ad.add(fooling, ad.add(ad.scale(l_top, weights.lambda_top),
                                      ad.scale(l_inf, weights.lambda_inf)))
        loss = term if loss is None else ad.add(loss, term)
    return loss
