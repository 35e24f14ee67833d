"""Adversarial training loop and test-time multigraph prediction.

One iteration = n_critic discriminator updates followed by one generator
update; each update evaluates its objective summed over all clusters, each
on a within-cluster batch.  Every cluster holds one batch: its rows, their
normalized adjacencies and their real-target centralities.  A cluster larger
than the batch size refills it with a fresh draw of members at every
update, and its fakes are decoded for each draw.  A cluster that fits in
one batch fills it once, at set-up, with all of its members in member
order, and its fakes are decoded once per iteration, at the first critic
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
from .affinity import learn_affinity, normalize_adjacency, sub_affinity
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
    n_critic: int = 5
    clusters: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise PreconditionError("lr must be finite and > 0")
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

    Its current batch of n members is ``rows``, one ((2k + 1) * n, f) buffer
    [source; k fake slots; k real targets], with its (v, n, n) normalized
    adjacencies ``norms`` and its real targets' (k * n, r) eigenvector
    centralities ``real_cent``.  A cluster with at most ``batch_size``
    members fills the batch once, here, with every member in member order.
    A larger cluster keeps its members' rows, (v, m, m) affinities and
    (k, m, r) centralities in ``pool``, from which :meth:`draw` refills the
    batch.
    """

    def __init__(self, members: np.ndarray, feats: np.ndarray, real_cent: np.ndarray,
                 batch_size: int):
        m, k, f = members.size, feats.shape[0] - 1, feats.shape[2]
        self.n = n = min(m, batch_size)
        self.rows = np.empty(((2 * k + 1) * n, f))
        blocks = self.rows.reshape(-1, n, f)
        self.source, self.fakes, self.targets = blocks[0], self.rows[n:(k + 1) * n], blocks[-k:]
        pooled = n < m
        source, targets = ((np.empty((m, f)), np.empty((k, m, f))) if pooled
                           else (self.source, self.targets))
        # the members are valid indices, so "clip" gathers unbuffered
        np.take(feats[0], members, axis=0, out=source, mode="clip")
        np.take(feats[1:], members, axis=1, out=targets, mode="clip")
        affinities = np.stack([learn_affinity(x) for x in (source, *targets)])
        self.pool = (source, targets, affinities, real_cent) if pooled else None
        if not pooled:
            self.norms = normalize_adjacency(affinities)
            self.real_cent = real_cent.reshape(k * n, -1)

    def draw(self, rng: np.random.Generator) -> bool:
        """Refill the batch with n members drawn from ``pool`` without
        replacement; returns False, and draws nothing, for a whole cluster."""
        if self.pool is None:
            return False
        source, targets, affinities, real_cent = self.pool
        idx = rng.choice(source.shape[0], size=self.n, replace=False)
        self.norms = normalize_adjacency(sub_affinity(affinities, idx))
        # rng.choice draws valid indices, so "clip" gathers unbuffered
        np.take(source, idx, axis=0, out=self.source, mode="clip")
        np.take(targets, idx, axis=1, out=self.targets, mode="clip")
        self.real_cent = np.take(real_cent, idx, axis=1).reshape(-1, real_cent.shape[2])
        return True


def _check_finite(iteration: int, losses: dict[str, float]) -> None:
    """Stop training before a non-finite loss reaches the parameters."""
    for name, value in losses.items():
        if not np.isfinite(value):
            raise TrainingError(f"iteration {iteration}: {name} is {value}")


def train(dataset: PopulationDataset, source_view: int, cfg: TrainingConfig,
          weights: LossWeights = LossWeights()) -> tuple[ModelBundle, TrainingTrace]:
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
    affinity_source = learn_affinity(feats[0])

    bundle = init_params(Dims(r=r, v=dataset.v, c=cfg.clusters), seed=cfg.seed)

    # cluster the initial source embeddings over the full training population
    norm_full = normalize_adjacency(affinity_source)
    z_full = encode(bundle.encoder, ad.constant(feats[0]), norm_full)
    assignment = cluster_source_embeddings(z_full.data, cfg.clusters, cfg.seed)

    clusters = []
    for j in range(cfg.clusters):
        members = np.flatnonzero(assignment.labels == j)
        if members.size < 2:
            raise TrainingError(
                f"cluster {j} has {members.size} subject(s); lower --clusters")
        real_cent = np.stack([topology.ec_or_zero(dataset.tensor[members, view])
                              for view in targets])
        clusters.append(_ClusterContext(members, feats, real_cent, cfg.batch_size))
    # each cluster has gathered its rows; the full-population set-up is done
    del feats, affinity_source, norm_full, z_full

    opt_d = ad.Adam(bundle.discriminator.params(), lr=cfg.lr)
    opt_g = ad.Adam(bundle.encoder.params() + bundle.generator_params(), lr=cfg.lr)

    disc = bundle.discriminator

    def critic_step(iteration: int, decode: bool) -> tuple[float, float, float, float]:
        """One discriminator update; returns (L_D, L_adv, L_gp, L_gdc).

        Each cluster draws its batch, then decodes its fakes if it drew one
        or if ``decode`` is set: a whole cluster keeps its batch, and the
        encoder and generators change only in the generator step."""
        for j, ctx in enumerate(clusters):
            if ctx.draw(rng_batch) or decode:
                # generated graphs are constants for the critic update
                z = encode(bundle.encoder, ad.constant(ctx.source), ctx.norms[0])
                generate(bundle.generators[j], z, ctx.norms[1:], out=ctx.fakes)

        with ad.Tape() as tape:
            parts = []
            sums = [0.0, 0.0, 0.0]
            gram = first_layer_gram(disc)
            for ctx in clusters:
                n, norm_s = ctx.n, ctx.norms[0]
                # one projection of [source; k fakes; k real targets] feeds
                # both the critic pass and the gradient penalty
                proj = project(disc, ad.constant(ctx.rows))
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
        opt_d.minimize(tape, loss_d)
        return loss_d.item(), sums[0], sums[1], sums[2]

    def generator_step(iteration: int) -> tuple[float, float, float]:
        """One encoder and generator update; returns (L_G, L_top, L_inf)."""
        fixed = frozen(disc)  # the discriminator gets no gradient here
        with ad.Tape() as tape:
            parts = []
            sums = [0.0, 0.0]
            for j, ctx in enumerate(clusters):
                ctx.draw(rng_batch)
                z = encode(bundle.encoder, ad.constant(ctx.source), ctx.norms[0])
                # the next critic step overwrites these fake slots
                fakes = generate(bundle.generators[j], z, ctx.norms[1:], out=ctx.fakes)
                critic, probs = discriminate(fixed, project(fixed, fakes), ctx.norms[0])
                l_top = topological_loss(ctx.rows[-k * ctx.n:], fakes, r, k,
                                         real_centralities=ctx.real_cent)
                l_inf = info_max_loss(probs, k)
                parts.append((generator_fooling_term(critic), l_top, l_inf))
                sums[0] += l_top.item()
                sums[1] += l_inf.item()
            loss_g = generator_loss(parts, weights)
        _check_finite(iteration, {"L_top": sums[0], "L_inf": sums[1], "L_G": loss_g.item()})
        opt_g.minimize(tape, loss_g)
        return loss_g.item(), sums[0], sums[1]

    trace = TrainingTrace()
    t0 = time.perf_counter()
    for iteration in range(cfg.iterations):
        # the critic columns are means over the iteration's critic steps
        steps = [critic_step(iteration, decode=step == 0) for step in range(cfg.n_critic)]
        l_d, l_adv, l_gp, l_gdc = (sum(column) / cfg.n_critic for column in zip(*steps))
        l_g, l_top, l_inf = generator_step(iteration)
        trace.records.append(TraceRecord(
            iteration=iteration, l_d=l_d, l_adv=l_adv, l_gp=l_gp, l_gdc=l_gdc,
            l_g=l_g, l_top=l_top, l_inf=l_inf, wall_time=time.perf_counter() - t0))
    return bundle, trace


def predict_multigraph(bundle: ModelBundle, test_source_features) -> np.ndarray:
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
    affinity = np.ones((1, 1)) if m == 1 else learn_affinity(f_test)
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
