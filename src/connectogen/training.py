"""Adversarial training loop and test-time multigraph prediction.

One iteration = n_critic discriminator updates followed by one generator
update; each update evaluates its objective summed over all clusters on a
freshly sampled within-cluster batch.  The discriminator sees real/generated
features through the cluster's source-affinity adjacency, all of a cluster's
blocks (source, fakes, real targets) stacked into one pass whose first-layer
projection the gradient penalty reuses; each generator decodes through its
cluster's target-view affinity, and the generator update sees the
discriminator's weights as constants.  Training stops with TrainingError at the
first non-finite loss.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import topology
from .affinity import MKMLConfig, learn_affinity, normalize_adjacency, sub_affinity
from .clustering import cluster_source_embeddings
from .data import PopulationDataset, devectorize
from .errors import DimensionError, NumericError, PreconditionError, TrainingError
from .losses import (
    LossWeights,
    adversarial_loss,
    discriminator_loss,
    domain_classification_loss,
    generator_fooling_term,
    generator_loss,
    gradient_penalty,
    info_max_loss,
    topological_loss,
)
from .models import (
    Dims,
    ModelBundle,
    discriminate,
    discriminator_gradient_norms,
    encode,
    first_layer_gram,
    frozen,
    generate,
    init_params,
    project,
)

@dataclass(frozen=True)
class TrainingConfig:
    iterations: int = 1000
    batch_size: int = 70
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.999
    n_critic: int = 5
    clusters: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise PreconditionError("lr must be finite and > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise PreconditionError("beta1 and beta2 must lie in [0, 1)")
        if self.batch_size < 2:
            raise PreconditionError("batch_size must be >= 2")
        if self.n_critic < 1:
            raise PreconditionError("n_critic must be >= 1")
        if self.clusters < 1:
            raise PreconditionError("clusters must be >= 1")
        if self.iterations < 0:
            raise PreconditionError("iterations must be >= 0")


@dataclass
class TraceRecord:
    iteration: int
    l_d: float
    l_adv: float
    l_gp: float
    l_gdc: float
    l_g: float
    l_top: float
    l_inf: float
    wall_time: float


@dataclass
class TrainingTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["iteration,L_D,L_adv,L_gp,L_gdc,L_G,L_top,L_inf"]
        for rec in self.records:
            lines.append(f"{rec.iteration},{rec.l_d:.17g},{rec.l_adv:.17g},"
                         f"{rec.l_gp:.17g},{rec.l_gdc:.17g},{rec.l_g:.17g},"
                         f"{rec.l_top:.17g},{rec.l_inf:.17g}")
        return "\n".join(lines) + "\n"


def target_views(v: int, source_view: int) -> list[int]:
    """Dataset view indices of the k target domains, ascending."""
    return [i for i in range(v) if i != source_view]


class _ClusterContext:
    """Precomputed per-cluster affinities, features, and the (k, members, r)
    eigenvector centralities of the real target views."""

    def __init__(self, members: np.ndarray, feats_by_view: dict[int, np.ndarray],
                 affin_by_view: dict[int, np.ndarray], real_cent: np.ndarray):
        self.members = members
        self.feats_by_view = feats_by_view
        self.affin_by_view = affin_by_view
        self.real_cent = real_cent


def _check_finite(iteration: int, losses: dict[str, float]) -> None:
    """Stop training before a non-finite loss reaches the parameters."""
    for name, value in losses.items():
        if not np.isfinite(value):
            raise TrainingError(f"iteration {iteration}: {name} is {value}")


def train(dataset: PopulationDataset, source_view: int, cfg: TrainingConfig,
          weights: LossWeights = LossWeights(),
          mkml: MKMLConfig = MKMLConfig()) -> tuple[ModelBundle, TrainingTrace]:
    """Train the encoder, cluster-specific generators, and discriminator."""
    if dataset.v < 2:
        raise PreconditionError("dataset needs at least 2 views")
    if not 0 <= source_view < dataset.v:
        raise PreconditionError(f"source_view {source_view} out of range [0, {dataset.v})")
    if dataset.s < cfg.clusters * 2:
        raise TrainingError(
            f"{dataset.s} training subjects cannot fill {cfg.clusters} clusters of >= 2")

    r, k = dataset.r, dataset.k
    targets = target_views(dataset.v, source_view)
    sigma = weights.resolved_sigma(k)

    seq = np.random.SeedSequence(cfg.seed)
    batch_seq, gp_seq = seq.spawn(2)
    rng_batch = np.random.default_rng(batch_seq)
    rng_gp = np.random.default_rng(gp_seq)

    feats = {view: dataset.feature_matrix(view) for view in range(dataset.v)}
    affinity_source = learn_affinity(feats[source_view], mkml)

    bundle = init_params(Dims(r=r, v=dataset.v, c=cfg.clusters), seed=cfg.seed)

    # cluster the initial source embeddings over the full training population
    norm_full = ad.constant(normalize_adjacency(affinity_source))
    z_full = encode(bundle.encoder, ad.constant(feats[source_view]), norm_full)
    assignment = cluster_source_embeddings(z_full.data, mkml, cfg.clusters, cfg.seed)

    clusters = []
    for j in range(cfg.clusters):
        members = np.flatnonzero(assignment.labels == j)
        if members.size < 2:
            raise TrainingError(
                f"cluster {j} has {members.size} subject(s); lower --clusters")
        feats_by_view = {view: feats[view][members] for view in range(dataset.v)}
        affin_by_view = {view: learn_affinity(feats_by_view[view], mkml)
                         for view in range(dataset.v)}
        real_cent = np.stack([topology.ec_or_zero(dataset.tensor[members, view])
                              for view in targets])
        clusters.append(_ClusterContext(members, feats_by_view, affin_by_view, real_cent))

    opt_d = ad.Adam(bundle.discriminator.params(), lr=cfg.lr,
                    beta1=cfg.beta1, beta2=cfg.beta2)
    gen_params = bundle.encoder.params() + bundle.generator_params()
    opt_g = ad.Adam(gen_params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)

    def sample_batch(ctx: _ClusterContext) -> np.ndarray:
        size = min(cfg.batch_size, ctx.members.size)
        return rng_batch.choice(ctx.members.size, size=size, replace=False)

    def batch_tensors(ctx: _ClusterContext, local_idx: np.ndarray, fake_blocks: int):
        """Adjacencies and the feature rows [source; fake_blocks unfilled
        blocks; k real targets], gathered into one array."""
        norm_s = ad.constant(normalize_adjacency(
            sub_affinity(ctx.affin_by_view[source_view], local_idx)))
        norm_t = [ad.constant(normalize_adjacency(
            sub_affinity(ctx.affin_by_view[view], local_idx))) for view in targets]
        n = local_idx.size
        views = [source_view] + [None] * fake_blocks + targets
        rows = np.empty((len(views) * n, dataset.f))
        for b, view in enumerate(views):
            if view is not None:
                rows[b * n:(b + 1) * n] = ctx.feats_by_view[view][local_idx]
        return norm_s, norm_t, rows

    def make_fakes(j: int, z: ad.Tensor, norm_t: list[ad.Tensor]) -> list[ad.Tensor]:
        return [generate(bundle.generator(j, i), z, norm_t[i]) for i in range(k)]

    disc = bundle.discriminator

    def critic_step(iteration: int) -> tuple[float, float, float, float]:
        """One discriminator update; returns (L_D, L_adv, L_gp, L_gdc)."""
        batches = []
        for j, ctx in enumerate(clusters):
            local_idx = sample_batch(ctx)
            norm_s, norm_t, rows = batch_tensors(ctx, local_idx, k)
            n = local_idx.size
            # generated graphs are constants for the critic update
            z = encode(bundle.encoder, ad.constant(rows[:n]), norm_s)
            for i, fake in enumerate(make_fakes(j, z, norm_t)):
                rows[(1 + i) * n:(2 + i) * n] = fake.data
            batches.append((norm_s, n, rows))

        with ad.Tape() as tape:
            parts = []
            sums = [0.0, 0.0, 0.0]
            gram = first_layer_gram(disc)
            for norm_s, n, rows in batches:
                # one projection of [source; k fakes; k real targets] feeds
                # both the critic pass and the gradient penalty
                proj = project(disc, ad.constant(rows))
                critic, probs = discriminate(disc, proj, norm_s)
                critic = ad.split_rows(critic, n)
                probs = ad.split_rows(probs, n)
                l_adv = adversarial_loss(critic[0], critic[1:k + 1])
                l_gdc = domain_classification_loss(probs[1:k + 1], probs[k + 1:])
                proj = ad.split_rows(proj, n)
                l_gp = gradient_penalty(
                    lambda mix: discriminator_gradient_norms(disc, mix, norm_s, gram),
                    proj[0], ad.vstack(proj[1:k + 1]), sigma, rng_gp)
                parts.append((l_adv, l_gp, l_gdc))
                sums[0] += l_adv.item()
                sums[1] += l_gp.item()
                sums[2] += l_gdc.item()
            loss_d = discriminator_loss(parts, weights)
        _check_finite(iteration, {"L_adv": sums[0], "L_gp": sums[1], "L_gdc": sums[2],
                                  "L_D": loss_d.item()})
        opt_d.step(ad.backward(tape, loss_d), tape)
        return loss_d.item(), sums[0], sums[1], sums[2]

    def generator_step(iteration: int) -> tuple[float, float, float]:
        """One encoder and generator update; returns (L_G, L_top, L_inf)."""
        fixed = frozen(disc)  # the discriminator gets no gradient here
        with ad.Tape() as tape:
            parts = []
            sums = [0.0, 0.0]
            for j, ctx in enumerate(clusters):
                local_idx = sample_batch(ctx)
                norm_s, norm_t, rows = batch_tensors(ctx, local_idx, 0)
                n = local_idx.size
                z = encode(bundle.encoder, ad.constant(rows[:n]), norm_s)
                fakes = ad.vstack(make_fakes(j, z, norm_t))
                critic, probs = discriminate(fixed, project(fixed, fakes), norm_s)
                fooling = generator_fooling_term(ad.split_rows(critic, n))
                l_top = topological_loss(
                    rows[n:], fakes, r, k,
                    real_centralities=ctx.real_cent[:, local_idx].reshape(k * n, r))
                l_inf = info_max_loss(ad.split_rows(probs, n))
                parts.append((fooling, l_top, l_inf))
                sums[0] += l_top.item()
                sums[1] += l_inf.item()
            loss_g = generator_loss(parts, weights)
        _check_finite(iteration, {"L_top": sums[0], "L_inf": sums[1], "L_G": loss_g.item()})
        opt_g.step(ad.backward(tape, loss_g), tape)
        return loss_g.item(), sums[0], sums[1]

    trace = TrainingTrace()
    t0 = time.perf_counter()
    for iteration in range(cfg.iterations):
        for _ in range(cfg.n_critic):
            l_d, l_adv, l_gp, l_gdc = critic_step(iteration)
        l_g, l_top, l_inf = generator_step(iteration)
        trace.records.append(TraceRecord(
            iteration=iteration, l_d=l_d, l_adv=l_adv, l_gp=l_gp, l_gdc=l_gdc,
            l_g=l_g, l_top=l_top, l_inf=l_inf, wall_time=time.perf_counter() - t0))

    bundle.loss_weights = weights
    return bundle, trace


def predict_multigraph(bundle: ModelBundle, test_source_features,
                       mkml: MKMLConfig = MKMLConfig()) -> np.ndarray:
    """Predict the (m, r, r, k) target multigraph tensor for test subjects.

    Builds the test-population affinity from the source features, encodes,
    and averages the c cluster-specific generators per target view; each
    predicted feature row is clamped and devectorized to a symmetric
    zero-diagonal matrix.  Target slice i corresponds to the i-th non-source
    view in ascending dataset order.  Raises NumericError rather than
    return non-finite weights.
    """
    f_test = np.asarray(test_source_features, dtype=np.float64)
    dims = bundle.dims
    if f_test.ndim != 2 or f_test.shape[1] != dims.f:
        raise DimensionError(
            f"test features {f_test.shape} do not match bundle f={dims.f}")
    m = f_test.shape[0]
    if m == 0:
        raise PreconditionError("no test subjects")
    affinity = np.ones((1, 1)) if m == 1 else learn_affinity(f_test, mkml)
    norm_adj = ad.constant(normalize_adjacency(affinity))
    z = encode(bundle.encoder, ad.constant(f_test), norm_adj)

    out = np.empty((m, dims.r, dims.r, dims.k))
    for i in range(dims.k):
        acc = np.zeros((m, dims.f))
        for j in range(dims.c):
            acc += generate(bundle.generator(j, i), z, norm_adj).data
        acc /= dims.c
        if not np.all(np.isfinite(acc)):
            raise NumericError(f"predicted target view {i} has non-finite weights")
        for s in range(m):
            out[s, :, :, i] = devectorize(acc[s], dims.r)
    return out
