"""Adversarial training loop and test-time multigraph prediction.

One iteration = n_critic discriminator updates followed by one generator
update; each update evaluates its objective summed over all clusters on a
freshly sampled within-cluster batch.  The discriminator sees real/generated
features through the cluster's source-affinity adjacency; each generator
decodes through its cluster's target-view affinity.  Everything is
deterministic given the seed.
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
from .errors import DimensionError, PreconditionError, TrainingError
from .losses import (
    LossWeights,
    adversarial_loss,
    discriminator_loss,
    domain_classification_loss,
    generator_fooling_term,
    generator_loss,
    gradient_penalty,
    gradient_penalty_exact,
    info_max_loss,
    topological_loss,
)
from .models import (
    Dims,
    ModelBundle,
    discriminate,
    discriminator_input_gradient,
    encode,
    generate,
    init_params,
)

CENTRALITY_MODES = ("cc", "bc", "ec")
GP_MODES = ("probe", "exact")


@dataclass(frozen=True)
class TrainingConfig:
    iterations: int = 1000
    batch_size: int = 70
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.999
    n_critic: int = 5
    centrality_mode: str = "ec"
    clusters: int = 2
    seed: int = 0
    gp_mode: str = "probe"
    interp: str = topology.DISTANCE

    def __post_init__(self):
        if self.batch_size < 2:
            raise PreconditionError("batch_size must be >= 2")
        if self.n_critic < 1:
            raise PreconditionError("n_critic must be >= 1")
        if self.iterations < 0:
            raise PreconditionError("iterations must be >= 0")
        if self.centrality_mode.lower() not in CENTRALITY_MODES:
            raise PreconditionError(f"centrality_mode must be one of {CENTRALITY_MODES}")
        if self.gp_mode not in GP_MODES:
            raise PreconditionError(f"gp_mode must be one of {GP_MODES}")


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
    """Precomputed per-cluster affinities, features, and real centralities."""

    def __init__(self, members: np.ndarray, feats_by_view: dict[int, np.ndarray],
                 affin_by_view: dict[int, np.ndarray], real_cent: list[np.ndarray]):
        self.members = members
        self.feats_by_view = feats_by_view
        self.affin_by_view = affin_by_view
        self.real_cent = real_cent


def _stacked_critic(disc, blocks: int, norm_adj: ad.Tensor):
    """Critic over a vertically stacked batch, evaluated block by block.

    Equivalent to one call with a block-diagonal adjacency, since subjects
    only mix within their own view block.  Only valid on detached inputs
    (the penalty regularizes the discriminator; generated graphs enter it
    as constants).
    """
    def critic(mixed: ad.Tensor):
        assert not mixed.requires_grad, "stacked critic detaches its input"
        rows = mixed.shape[0] // blocks
        outs = []
        for b in range(blocks):
            part = ad.constant(mixed.data[b * rows:(b + 1) * rows])
            outs.append(discriminate(disc, part, norm_adj)[0])
        return ad.vstack(outs) if blocks > 1 else outs[0]

    return critic


def _stacked_input_gradient(disc, blocks: int, norm_adj: ad.Tensor):
    def input_gradient(mixed: ad.Tensor):
        assert not mixed.requires_grad, "stacked input gradient detaches its input"
        rows = mixed.shape[0] // blocks
        outs = []
        for b in range(blocks):
            part = ad.constant(mixed.data[b * rows:(b + 1) * rows])
            outs.append(discriminator_input_gradient(disc, part, norm_adj))
        return ad.vstack(outs) if blocks > 1 else outs[0]

    return input_gradient


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
    mode = cfg.centrality_mode.lower()
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
        if mode == "ec":
            real_cent = [topology.ec_or_zero(dataset.tensor[members, view])
                         for view in targets]
        else:
            metric = topology.METRICS[mode]
            real_cent = [metric(dataset.tensor[members, view], cfg.interp)
                         for view in targets]
        clusters.append(_ClusterContext(members, feats_by_view, affin_by_view, real_cent))

    opt_d = ad.Adam(bundle.discriminator.params(), lr=cfg.lr,
                    beta1=cfg.beta1, beta2=cfg.beta2)
    gen_params = bundle.encoder.params() + bundle.generator_params()
    opt_g = ad.Adam(gen_params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)

    def sample_batch(ctx: _ClusterContext) -> np.ndarray:
        size = min(cfg.batch_size, ctx.members.size)
        return rng_batch.choice(ctx.members.size, size=size, replace=False)

    def batch_tensors(ctx: _ClusterContext, local_idx: np.ndarray):
        norm_s = ad.constant(normalize_adjacency(
            sub_affinity(ctx.affin_by_view[source_view], local_idx)))
        norm_t = [ad.constant(normalize_adjacency(
            sub_affinity(ctx.affin_by_view[view], local_idx))) for view in targets]
        f_src = ctx.feats_by_view[source_view][local_idx]
        f_real = [ctx.feats_by_view[view][local_idx] for view in targets]
        return norm_s, norm_t, f_src, f_real

    def make_fakes(j: int, z: ad.Tensor, norm_t: list[ad.Tensor]) -> list[ad.Tensor]:
        return [generate(bundle.generator(j, i), z, norm_t[i]) for i in range(k)]

    trace = TrainingTrace()
    t0 = time.perf_counter()

    for iteration in range(cfg.iterations):
        d_components = (0.0, 0.0, 0.0, 0.0)
        for _ in range(cfg.n_critic):
            batches = []
            for j, ctx in enumerate(clusters):
                local_idx = sample_batch(ctx)
                norm_s, norm_t, f_src, f_real = batch_tensors(ctx, local_idx)
                # generated graphs are constants for the critic update
                z = encode(bundle.encoder, ad.constant(f_src), norm_s)
                fakes = [fk.detached() for fk in make_fakes(j, z, norm_t)]
                batches.append((norm_s, f_src, f_real, fakes))

            with ad.Tape() as tape:
                parts = []
                sums = [0.0, 0.0, 0.0]
                for norm_s, f_src, f_real, fakes in batches:
                    critic_real, _ = discriminate(
                        bundle.discriminator, ad.constant(f_src), norm_s)
                    critic_fakes, probs_fake = [], []
                    for fake in fakes:
                        critic, probs = discriminate(bundle.discriminator, fake, norm_s)
                        critic_fakes.append(critic)
                        probs_fake.append(probs)
                    probs_real = [discriminate(bundle.discriminator,
                                               ad.constant(fr), norm_s)[1]
                                  for fr in f_real]
                    l_adv = adversarial_loss(critic_real, critic_fakes)
                    l_gdc = domain_classification_loss(probs_fake, probs_real)
                    src_tiled = ad.constant(np.tile(f_src, (k, 1)))
                    fakes_stacked = ad.constant(np.vstack([fk.data for fk in fakes]))
                    if cfg.gp_mode == "probe":
                        l_gp = gradient_penalty(
                            _stacked_critic(bundle.discriminator, k, norm_s),
                            src_tiled, fakes_stacked, sigma, rng_gp)
                    else:
                        l_gp = gradient_penalty_exact(
                            _stacked_input_gradient(bundle.discriminator, k, norm_s),
                            src_tiled, fakes_stacked, sigma, rng_gp)
                    parts.append((l_adv, l_gp, l_gdc))
                    sums[0] += l_adv.item()
                    sums[1] += l_gp.item()
                    sums[2] += l_gdc.item()
                loss_d = discriminator_loss(parts, weights)
                d_components = (loss_d.item(), sums[0], sums[1], sums[2])
            grad_map = ad.backward(tape, loss_d)
            opt_d.step(grad_map, tape)

        with ad.Tape() as tape:
            parts = []
            sums = [0.0, 0.0]
            for j, ctx in enumerate(clusters):
                local_idx = sample_batch(ctx)
                norm_s, norm_t, f_src, f_real = batch_tensors(ctx, local_idx)
                z = encode(bundle.encoder, ad.constant(f_src), norm_s)
                fakes = make_fakes(j, z, norm_t)
                critic_fakes, probs_fake = [], []
                for fake in fakes:
                    critic, probs = discriminate(bundle.discriminator, fake, norm_s)
                    critic_fakes.append(critic)
                    probs_fake.append(probs)
                fooling = generator_fooling_term(critic_fakes)
                l_top = topological_loss(
                    f_real, fakes, r, mode=mode, interp=cfg.interp,
                    real_centralities=[cent[local_idx] for cent in ctx.real_cent])
                l_inf = info_max_loss(probs_fake)
                parts.append((fooling, l_top, l_inf))
                sums[0] += l_top.item()
                sums[1] += l_inf.item()
            loss_g = generator_loss(parts, weights)
            l_g_val = loss_g.item()
        grad_map = ad.backward(tape, loss_g)
        opt_g.step(grad_map, tape)

        trace.records.append(TraceRecord(
            iteration=iteration, l_d=d_components[0], l_adv=d_components[1],
            l_gp=d_components[2], l_gdc=d_components[3], l_g=l_g_val,
            l_top=sums[0], l_inf=sums[1], wall_time=time.perf_counter() - t0))

    bundle.loss_weights = weights
    return bundle, trace


def predict_multigraph(bundle: ModelBundle, test_source_features,
                       mkml: MKMLConfig = MKMLConfig()) -> np.ndarray:
    """Predict the (m, r, r, k) target multigraph tensor for test subjects.

    Builds the test-population affinity from the source features, encodes,
    and averages the c cluster-specific generators per target view; each
    predicted feature row is clamped and devectorized to a symmetric
    zero-diagonal matrix.  Target slice i corresponds to the i-th non-source
    view in ascending dataset order.
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
        for s in range(m):
            out[s, :, :, i] = devectorize(acc[s], dims.r)
    return out
