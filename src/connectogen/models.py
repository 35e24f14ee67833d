"""GCN building blocks: encoder, cluster-specific generators, discriminator.

A model is its weight tensors, one (in, out) matrix per layer.  Every layer
computes phi(normA @ F @ W) where normA is a normalized subject-affinity
adjacency: a constant numpy array, which :func:`autodiff.stack_matmul`
applies and which gets no gradient.  The architecture is fixed, and so is
each layer's activation phi, which the forward functions apply: the encoder
maps f -> 32 (relu) -> 16 (linear), generators map 16 -> 32 (relu) -> f
(linear), and the discriminator trunk maps f -> 32 (relu) -> 16 (relu)
with a linear critic head and a sigmoid domain-classifier head on top.
A cluster's k generators decode together (:func:`generate`): one op per
layer applies the k target-view adjacencies, one more the k weight
matrices, whatever k is.  The discriminator's first-layer projection is
split out (:func:`project`), so its only f-wide product runs once per
batch.

Bundles serialize to a fixed little-endian layout: 5-byte magic ``TMGP1``,
1-byte format version, u32 dims (r, v, c, d) with d always the embedding
width 16, then float64 parameter blobs row-major in a documented order
(encoder L1, L2; generators row-major by (cluster, view); discriminator
trunk L1, L2, critic, classifier).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import _write_atomic, feature_count
from .errors import DimensionError, PreconditionError, SerializationError

MAGIC = b"TMGP1"
FORMAT_VERSION = 1

HIDDEN_WIDE = 32
EMBED_DIM = 16


def gcn_forward(weight: ad.Tensor, features: ad.Tensor, norm_adj: np.ndarray) -> ad.Tensor:
    """normA @ F @ W, the pre-activation, recorded on the active tape.

    ``features`` may stack B batches of the adjacency's n subjects, (B*n, f);
    each n-row block then propagates through normA on its own.
    """
    if weight.shape[1] < features.shape[1]:
        # shrink the wide dimension first; associativity keeps the math exact
        return ad.stack_matmul(norm_adj, ad.matmul(features, weight))
    return ad.matmul(ad.stack_matmul(norm_adj, features), weight)


def _gcn_views(weights: list[ad.Tensor], features: ad.Tensor, norm_adjs: np.ndarray,
               out: np.ndarray | None = None) -> ad.Tensor:
    """:func:`gcn_forward` for one weight per view, all views in one pass.

    Block b of the (B*n, out) result, written into ``out`` when it is given,
    is norm_adjs[b] @ F_b @ W_b, where F_b is the b-th n-row block of
    ``features``, or all of an (n, in) ``features`` shared by the views.
    """
    if (weights[0].shape[1] < features.shape[1]
            and features.shape[0] == len(weights) * norm_adjs.shape[1]):
        # shrink the wide dimension first, as gcn_forward does
        return ad.stack_matmul(norm_adjs, ad.per_block_matmul(features, weights), out)
    return ad.per_block_matmul(ad.stack_matmul(norm_adjs, features), weights, out)


@dataclass
class EncoderModel:
    layer1: ad.Tensor  # f -> 32, relu
    layer2: ad.Tensor  # 32 -> 16, linear

    def params(self) -> list[ad.Tensor]:
        return [self.layer1, self.layer2]


@dataclass
class GeneratorModel:
    layer1: ad.Tensor  # 16 -> 32, relu
    layer2: ad.Tensor  # 32 -> f, linear

    def params(self) -> list[ad.Tensor]:
        return [self.layer1, self.layer2]


@dataclass
class DiscriminatorModel:
    layer1: ad.Tensor  # f -> 32, relu
    layer2: ad.Tensor  # 32 -> 16, relu
    critic_head: ad.Tensor  # 16 -> 1, linear
    classifier_head: ad.Tensor  # 16 -> 1, sigmoid

    def params(self) -> list[ad.Tensor]:
        return [self.layer1, self.layer2, self.critic_head, self.classifier_head]


def frozen(disc: DiscriminatorModel) -> DiscriminatorModel:
    """The same discriminator with its weights as constants.

    Each weight is a view of the parameter's array, not a copy, so a pass
    through the result sees the current weights but records no gradient
    for them: the generator step treats the discriminator as fixed.
    """
    return DiscriminatorModel(*(ad.constant(w.data) for w in disc.params()))


def encode(encoder: EncoderModel, features: ad.Tensor, norm_adj: np.ndarray) -> ad.Tensor:
    """Two-layer GCN embedding, (n, f) -> (n, 16)."""
    hidden = ad.relu(gcn_forward(encoder.layer1, features, norm_adj))
    return gcn_forward(encoder.layer2, hidden, norm_adj)


def generate(generators: list[GeneratorModel], embeddings: ad.Tensor,
             norm_adjs: np.ndarray, out: np.ndarray | None = None) -> ad.Tensor:
    """Two-layer GCN decode of k views at once, (n, 16) -> (k*n, f).

    Block i of the result holds the feature rows that ``generators[i]``
    predicts from the shared embeddings through the constant adjacency
    ``norm_adjs[i]`` of the (k, n, n) stack.  The rows are written into
    ``out`` when it is given.
    """
    if len(generators) != norm_adjs.shape[0]:
        raise DimensionError(
            f"{len(generators)} generators for {norm_adjs.shape[0]} adjacencies")
    hidden = ad.relu(_gcn_views([g.layer1 for g in generators], embeddings, norm_adjs))
    return _gcn_views([g.layer2 for g in generators], hidden, norm_adjs, out)


def project(disc: DiscriminatorModel, features: ad.Tensor) -> ad.Tensor:
    """First-layer projection X @ W1, (rows, f) -> (rows, 32).

    This is the discriminator's only f-wide op; :func:`discriminate` and
    :func:`discriminator_gradient_norms` both start from its output, so a
    batch is projected once however many passes consume it.
    """
    return ad.matmul(features, disc.layer1)


def first_layer_gram(disc: DiscriminatorModel) -> ad.Tensor:
    """W1^T W1, (32, 32): the metric that maps hidden-space gradients back to
    input-space norms in :func:`discriminator_gradient_norms`.  One
    :func:`autodiff.gram` op, so neither pass copies the (f, 32) W1."""
    return ad.gram(disc.layer1)


def discriminate(disc: DiscriminatorModel, projections: ad.Tensor,
                 norm_adj: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    """Critic scores (unbounded) and domain probabilities, both (rows, 1).

    Takes the inputs' :func:`project` output; the rows may stack several
    batches, as in :func:`gcn_forward`.
    """
    h1 = ad.relu(ad.stack_matmul(norm_adj, projections))
    trunk = ad.relu(gcn_forward(disc.layer2, h1, norm_adj))
    critic = gcn_forward(disc.critic_head, trunk, norm_adj)
    probs = ad.sigmoid(gcn_forward(disc.classifier_head, trunk, norm_adj))
    return critic, probs


def discriminator_gradient_norms(disc: DiscriminatorModel, projections: ad.Tensor,
                                 norm_adj: np.ndarray, gram: ad.Tensor) -> ad.Tensor:
    """Row norms of the summed critic's gradient w.r.t. its input rows, (rows, 1).

    The input gradient is Q @ W1^T with Q = normA^T G1 the (rows, 32)
    gradient at the first layer's output, so its squared row norms are
    rowsum(Q * (Q @ W1^T W1)) and no f-wide array is formed.  Built from
    forward primitives (relu masks enter as constants, which is exact almost
    everywhere), so the norms stay differentiable w.r.t. the discriminator
    parameters.  ``gram`` is :func:`first_layer_gram`, which a caller forms
    once for all its batches, so the gradient through it reaches W1 as one
    f-wide product per step however many batches share it.  Used by the
    gradient penalty.
    """
    pre1 = ad.stack_matmul(norm_adj, projections)
    h1 = ad.relu(pre1)
    pre2 = ad.stack_matmul(norm_adj, ad.matmul(h1, disc.layer2))
    mask1 = ad.constant((pre1.data > 0).astype(float))
    mask2 = ad.constant((pre2.data > 0).astype(float))
    ones = ad.constant(np.ones((projections.shape[0], 1)))
    # a contiguous copy: with a transposed view numpy takes other BLAS
    # paths for some of the products below, which round differently
    norm_t = np.ascontiguousarray(norm_adj.T)
    # d(sum critic)/dh2 back through critic head, then the trunk layers
    g2 = ad.mul(ad.matmul(ad.stack_matmul(norm_t, ones),
                          ad.transpose(disc.critic_head)), mask2)
    g1 = ad.mul(ad.matmul(ad.stack_matmul(norm_t, g2), ad.transpose(disc.layer2)), mask1)
    q = ad.stack_matmul(norm_t, g1)
    squares = ad.matmul(ad.mul(q, ad.matmul(q, gram)),
                        ad.constant(np.ones((q.shape[1], 1))))
    # the quadratic form can round below zero where the norm vanishes
    return ad.sqrt(ad.relu(squares))


@dataclass(frozen=True)
class Dims:
    r: int
    v: int
    c: int

    @property
    def k(self) -> int:
        return self.v - 1

    @property
    def f(self) -> int:
        return feature_count(self.r)


@dataclass
class ModelBundle:
    """Encoder + c*k generator grid + discriminator and their dimensions."""

    encoder: EncoderModel
    generators: list[list[GeneratorModel]]  # [cluster][target view]
    discriminator: DiscriminatorModel
    dims: Dims

    def generator_params(self) -> list[ad.Tensor]:
        out = []
        for row in self.generators:
            for g in row:
                out.extend(g.params())
        return out

    def all_params(self) -> list[ad.Tensor]:
        return (self.encoder.params() + self.generator_params()
                + self.discriminator.params())

    def _blobs(self) -> list[np.ndarray]:
        return [p.data for p in self.all_params()]


def _assemble(dims: Dims, weight) -> ModelBundle:
    """A bundle whose weight matrices come from ``weight(n_in, n_out)``, called
    in serialization order."""
    f, d = dims.f, EMBED_DIM
    encoder = EncoderModel(weight(f, HIDDEN_WIDE), weight(HIDDEN_WIDE, d))
    generators = [[GeneratorModel(weight(d, HIDDEN_WIDE), weight(HIDDEN_WIDE, f))
                   for _ in range(dims.k)]
                  for _ in range(dims.c)]
    discriminator = DiscriminatorModel(weight(f, HIDDEN_WIDE), weight(HIDDEN_WIDE, d),
                                       weight(d, 1), weight(d, 1))
    return ModelBundle(encoder=encoder, generators=generators,
                       discriminator=discriminator, dims=dims)


def init_params(dims: Dims, seed: int) -> ModelBundle:
    """Glorot-uniform bundle, deterministic by seed; draw order matches the
    serialization order."""
    if dims.r < 3 or dims.v < 2 or dims.c < 1:
        raise PreconditionError(f"invalid dims {dims}")
    rng = np.random.default_rng(seed)

    def glorot(n_in, n_out):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return ad.parameter(rng.uniform(-limit, limit, size=(n_in, n_out)))

    return _assemble(dims, glorot)


def save_bundle(bundle: ModelBundle, path) -> None:
    dims = bundle.dims
    header = MAGIC + struct.pack("<B", FORMAT_VERSION)
    header += struct.pack("<4I", dims.r, dims.v, dims.c, EMBED_DIM)
    payload = b"".join(np.ascontiguousarray(blob).astype("<f8").tobytes()
                       for blob in bundle._blobs())
    _write_atomic(path, header + payload)


def load_bundle(path) -> ModelBundle:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 1 + 16:
        raise SerializationError(f"{path}: file too short for a model header")
    if raw[:len(MAGIC)] != MAGIC:
        raise SerializationError(f"{path}: bad magic bytes")
    version = raw[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise SerializationError(f"{path}: unsupported format version {version}")
    offset = len(MAGIC) + 1
    r, v, c, d = struct.unpack_from("<4I", raw, offset)
    offset += 16
    if d != EMBED_DIM:
        raise SerializationError(f"{path}: embedding width {d} unsupported")
    if not (3 <= r <= 10_000 and 2 <= v <= 1_000 and 1 <= c <= 1_000):
        raise SerializationError(f"{path}: implausible dims r={r}, v={v}, c={c}")
    dims = Dims(r=r, v=v, c=c)
    bundle = _assemble(dims, lambda n_in, n_out: ad.parameter(np.zeros((n_in, n_out))))
    blobs = bundle._blobs()
    expected = sum(b.size for b in blobs) * 8
    if len(raw) - offset != expected:
        raise SerializationError(
            f"{path}: payload is {len(raw) - offset} bytes, expected {expected} "
            f"for dims r={r}, v={v}, c={c}, d={d}")
    for blob in blobs:
        size = blob.size * 8
        blob[...] = np.frombuffer(raw[offset:offset + size], dtype="<f8").reshape(blob.shape)
        offset += size
    return bundle
