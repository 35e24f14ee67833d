"""Adversarial training loop and test-time multigraph prediction.

One iteration = n_critic discriminator updates followed by one generator
update; each update evaluates its objective summed over all clusters, each
on a within-cluster batch.  A cluster larger than the batch size gets a
freshly sampled batch per update.  A cluster that fits in one batch is used
whole, in member order, by every update: its rows and adjacencies are set
up once, and its fakes are decoded once per iteration, at the first critic
update, since only the generator update changes the encoder and
generators.  Sampling such a batch would only permute it, which changes no
estimate: every loss is a mean over rows, the GCN layers are
permutation-equivariant, and the gradient penalty draws each row's mixing
weight i.i.d.

The discriminator sees real/generated features through the cluster's
source-affinity adjacency, all of a cluster's blocks (source, fakes, real
targets) stacked into one pass whose first-layer projection the gradient
penalty reuses.  A cluster's k generators decode the batch together,
through the (k, n, n) stack of its target-view affinities, and the losses
read the stacked critic outputs by row range, so a step records the same
number of tape ops for any k.  The generator update sees the
discriminator's weights as constants.  Training stops with TrainingError
at the first non-finite loss.  Everything is deterministic given the seed.
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
    """One cluster's training data, views in the order [source, *targets].

    ``rows`` holds the feature rows of the n members, in member order, as
    one ((1 + b + k) * n, f) buffer [source; b fake slots; k real targets].
    A cluster that fits in one batch (``whole``) is trained on all of its
    members at every step, so it has b = k slots for its decoded fakes, its
    (v, n, n) adjacencies ``norms`` are normalized once, and its real-target
    eigenvector centralities ``real_cent`` are laid out as (k * n, r).  A
    larger cluster samples a batch per step from the ``source`` and
    ``targets`` blocks (b = 0), its (v, n, n) ``affinities`` and its
    (k, n, r) ``real_cent``.
    """

    def __init__(self, members: np.ndarray, feats: np.ndarray, real_cent: np.ndarray,
                 whole: bool, mkml: MKMLConfig):
        n, k, f = members.size, feats.shape[0] - 1, feats.shape[2]
        self.members = members
        self.whole = whole
        self.rows = np.empty(((1 + (k if whole else 0) + k) * n, f))
        blocks = self.rows.reshape(-1, n, f)
        self.source, self.targets = blocks[0], blocks[-k:]
        # the members are valid indices, so "clip" gathers unbuffered
        np.take(feats[0], members, axis=0, out=self.source, mode="clip")
        np.take(feats[1:], members, axis=1, out=self.targets, mode="clip")
        affinities = np.stack([learn_affinity(x, mkml) for x in (self.source, *self.targets)])
        if whole:
            self.norms = normalize_adjacency(affinities)
            self.real_cent = real_cent.reshape(k * n, -1)
        else:
            self.affinities = affinities
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

    feats = np.stack([dataset.feature_matrix(view) for view in [source_view] + targets])
    affinity_source = learn_affinity(feats[0], mkml)

    bundle = init_params(Dims(r=r, v=dataset.v, c=cfg.clusters), seed=cfg.seed)

    # cluster the initial source embeddings over the full training population
    norm_full = normalize_adjacency(affinity_source)
    z_full = encode(bundle.encoder, ad.constant(feats[0]), norm_full)
    assignment = cluster_source_embeddings(z_full.data, mkml, cfg.clusters, cfg.seed)

    clusters = []
    for j in range(cfg.clusters):
        members = np.flatnonzero(assignment.labels == j)
        if members.size < 2:
            raise TrainingError(
                f"cluster {j} has {members.size} subject(s); lower --clusters")
        real_cent = np.stack([topology.ec_or_zero(dataset.tensor[members, view])
                              for view in targets])
        clusters.append(_ClusterContext(members, feats, real_cent,
                                        cfg.batch_size >= members.size, mkml))
    # each cluster has gathered its rows; the full-population set-up is done
    del feats, affinity_source, norm_full, z_full

    opt_d = ad.Adam(bundle.discriminator.params(), lr=cfg.lr,
                    beta1=cfg.beta1, beta2=cfg.beta2)
    gen_params = bundle.encoder.params() + bundle.generator_params()
    opt_g = ad.Adam(gen_params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)

    def sample_batch(ctx: _ClusterContext) -> np.ndarray:
        return rng_batch.choice(ctx.members.size, size=cfg.batch_size, replace=False)

    def batch_tensors(ctx: _ClusterContext, local_idx: np.ndarray, fake_blocks: int):
        """The source adjacency, the (k, n, n) target-view adjacencies and
        the feature rows [source; fake_blocks unfilled blocks; k real
        targets] of a cluster larger than the batch, gathered into one
        array."""
        norms = normalize_adjacency(sub_affinity(ctx.affinities, local_idx))
        n = local_idx.size
        rows = np.empty(((1 + fake_blocks + k) * n, dataset.f))
        blocks = rows.reshape(-1, n, dataset.f)
        # sample_batch draws valid indices, so "clip" gathers unbuffered
        np.take(ctx.source, local_idx, axis=0, out=blocks[0], mode="clip")
        np.take(ctx.targets, local_idx, axis=1, out=blocks[1 + fake_blocks:], mode="clip")
        return norms[0], norms[1:], rows

    disc = bundle.discriminator

    def critic_step(iteration: int, decode: bool) -> tuple[float, float, float, float]:
        """One discriminator update; returns (L_D, L_adv, L_gp, L_gdc).

        A whole cluster's fakes are decoded only when ``decode`` is set: the
        encoder and generators change only in the generator step."""
        batches = []
        for j, ctx in enumerate(clusters):
            if ctx.whole:
                norm_s, norm_t, rows = ctx.norms[0], ctx.norms[1:], ctx.rows
            else:
                norm_s, norm_t, rows = batch_tensors(ctx, sample_batch(ctx), k)
            n = rows.shape[0] // (2 * k + 1)
            if decode or not ctx.whole:
                # generated graphs are constants for the critic update
                z = encode(bundle.encoder, ad.constant(rows[:n]), norm_s)
                generate(bundle.generators[j], z, norm_t, out=rows[n:(k + 1) * n])
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
                fakes, reals = (n, (k + 1) * n), ((k + 1) * n, (2 * k + 1) * n)
                l_adv = adversarial_loss(ad.slice_rows(critic, 0, n),
                                         ad.slice_rows(critic, *fakes))
                l_gdc = domain_classification_loss(ad.slice_rows(probs, *fakes),
                                                   ad.slice_rows(probs, *reals), k)
                l_gp = gradient_penalty(
                    lambda mix: discriminator_gradient_norms(disc, mix, norm_s, gram),
                    ad.slice_rows(proj, 0, n), ad.slice_rows(proj, *fakes), sigma, rng_gp)
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
                if ctx.whole:
                    norm_s, norm_t, rows = ctx.norms[0], ctx.norms[1:], ctx.rows
                    real_cent = ctx.real_cent
                    n = ctx.members.size
                    # the next critic step overwrites these fake slots
                    out = rows[n:(k + 1) * n]
                else:
                    local_idx = sample_batch(ctx)
                    norm_s, norm_t, rows = batch_tensors(ctx, local_idx, 0)
                    n = local_idx.size
                    real_cent = np.take(ctx.real_cent, local_idx, axis=1).reshape(k * n, r)
                    out = None
                z = encode(bundle.encoder, ad.constant(rows[:n]), norm_s)
                fakes = generate(bundle.generators[j], z, norm_t, out=out)
                critic, probs = discriminate(fixed, project(fixed, fakes), norm_s)
                l_top = topological_loss(rows[-k * n:], fakes, r, k,
                                         real_centralities=real_cent)
                l_inf = info_max_loss(probs, k)
                parts.append((generator_fooling_term(critic), l_top, l_inf))
                sums[0] += l_top.item()
                sums[1] += l_inf.item()
            loss_g = generator_loss(parts, weights)
        _check_finite(iteration, {"L_top": sums[0], "L_inf": sums[1], "L_G": loss_g.item()})
        opt_g.step(ad.backward(tape, loss_g), tape)
        return loss_g.item(), sums[0], sums[1]

    trace = TrainingTrace()
    t0 = time.perf_counter()
    for iteration in range(cfg.iterations):
        for step in range(cfg.n_critic):
            l_d, l_adv, l_gp, l_gdc = critic_step(iteration, decode=step == 0)
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
    and averages the c clusters' decodes of all k target views; the
    predicted feature rows are clamped and devectorized to symmetric
    zero-diagonal matrices in one batched expansion.  Target slice i
    corresponds to the i-th non-source view in ascending dataset order.
    Raises NumericError rather than return non-finite weights.
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
    norm = normalize_adjacency(affinity)
    z = encode(bundle.encoder, ad.constant(f_test), norm)

    # every view decodes through the test population's one adjacency
    norm_views = np.broadcast_to(norm, (dims.k, m, m))
    acc = np.zeros((dims.k * m, dims.f))
    for j in range(dims.c):
        acc += generate(bundle.generators[j], z, norm_views).data
    acc /= dims.c
    views = acc.reshape(dims.k, m, dims.f)
    finite = np.isfinite(views).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(
            f"predicted target view {np.flatnonzero(~finite)[0]} has non-finite weights")
    return np.moveaxis(devectorize(views, dims.r), 0, -1)
