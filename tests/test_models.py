import hashlib

import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import models
from connectogen.errors import DimensionError, SerializationError

import oracles
from oracles import finite_difference


def small_dims():
    return models.Dims(r=5, v=3, c=2)  # f=10, k=2


class TestGCNForward:
    def test_identity_case(self):
        weight = ad.parameter(np.eye(3))
        feats = ad.constant(np.arange(6, dtype=float).reshape(2, 3))
        out = models.gcn_forward(weight, feats, np.eye(2))
        assert np.array_equal(out.data, feats.data)

    def test_hand_two_node_case(self):
        # normA=[[2/3,1/3],[1/3,2/3]], F=[[1],[0]], W=[[3]], relu -> [[2],[1]]
        weight = ad.parameter([[3.0]])
        norm = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        out = ad.relu(models.gcn_forward(weight, ad.constant([[1.0], [0.0]]), norm))
        assert np.allclose(out.data, [[2.0], [1.0]], atol=1e-12)

    def test_gradient_wrt_weight_matches_fd(self):
        rng = np.random.default_rng(0)
        norm = np.eye(4) * 0.5 + 0.1
        feats = rng.standard_normal((4, 3))
        w0 = rng.standard_normal((3, 2))

        def np_loss(wv):
            out = ad.relu(models.gcn_forward(ad.Tensor(wv), ad.constant(feats), norm))
            return (out.data ** 2).mean()

        weight = ad.parameter(w0.copy())
        with ad.Tape() as tape:
            out = ad.relu(models.gcn_forward(weight, ad.constant(feats), norm))
            loss = ad.mean(ad.mul(out, out))
        grad = ad.backward(tape, loss)[weight.node_id].data
        fd = finite_difference(np_loss, w0)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5

    def test_shape_mismatch(self):
        weight = ad.parameter(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            models.gcn_forward(weight, ad.constant(np.zeros((2, 4))), np.eye(2))
        with pytest.raises(DimensionError):  # 5 rows are not blocks of 2 subjects
            models.gcn_forward(weight, ad.constant(np.zeros((5, 3))), np.eye(2))


class TestNetworks:
    def test_encode_shape_and_zero_weights(self):
        bundle = models.init_params(small_dims(), seed=0)
        feats = ad.constant(np.random.default_rng(1).uniform(size=(6, 10)))
        norm = np.eye(6)
        z = models.encode(bundle.encoder, feats, norm)
        assert z.shape == (6, 16)
        for p in bundle.encoder.params():
            p.data[...] = 0.0
        z0 = models.encode(bundle.encoder, feats, norm)
        assert np.all(z0.data == 0.0)

    def test_encode_deterministic(self):
        bundle = models.init_params(small_dims(), seed=3)
        feats = ad.constant(np.random.default_rng(2).uniform(size=(4, 10)))
        norm = np.eye(4)
        a = models.encode(bundle.encoder, feats, norm).data
        b = models.encode(bundle.encoder, feats, norm).data
        assert np.array_equal(a, b)

    def test_generate_shape_and_nondegeneracy(self):
        bundle = models.init_params(small_dims(), seed=0)
        rng = np.random.default_rng(3)
        z = ad.constant(rng.standard_normal((6, 16)))
        mixed = np.full((6, 6), 1.0 / 6)
        out = models.generate(bundle.generators[0], z, np.stack([np.eye(6), mixed]))
        assert out.shape == (12, 10)
        out_a = models.generate([bundle.generators[0][0]], z, np.eye(6)[None])
        out_b = models.generate([bundle.generators[0][0]], z, mixed[None])
        assert not np.allclose(out_a.data, out_b.data)  # adjacency matters

    def test_generate_zero_weights(self):
        bundle = models.init_params(small_dims(), seed=0)
        gen = bundle.generators[1][1]
        for p in gen.params():
            p.data[...] = 0.0
        out = models.generate([gen], ad.constant(np.ones((3, 16))), np.eye(3)[None])
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("r", [5, 10])  # f = 10 < 32 and f = 45 > 32
    def test_generate_matches_per_view_layers(self, r):
        # block i of the stacked decode is generator i's two gcn_forward
        # layers through adjacency i: bitwise forward, gradients to 1e-12
        bundle = models.init_params(models.Dims(r=r, v=4, c=1), seed=7)
        gens = bundle.generators[0]
        rng = np.random.default_rng(8)
        n = 5
        adjs = rng.uniform(size=(3, n, n))
        z0 = rng.standard_normal((n, 16))
        weights0 = rng.standard_normal((3 * n, gens[0].layer2.shape[1]))

        def per_view(z):
            blocks = [models.gcn_forward(g.layer2, ad.relu(models.gcn_forward(
                g.layer1, z, adjs[i])), adjs[i])
                for i, g in enumerate(gens)]
            return ad.vstack(blocks)

        def run(decode):
            z = ad.parameter(z0)
            with ad.Tape() as tape:
                out = decode(z)
                loss = ad.mean(ad.mul(out, ad.constant(weights0)))
            grads = ad.backward(tape, loss)
            params = [z] + [p for g in gens for p in g.params()]
            return out.data, [grads[p.node_id].data for p in params]

        out, grads = run(lambda z: models.generate(gens, z, adjs))
        ref_out, ref_grads = run(per_view)
        assert np.array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_generate_count_mismatch(self):
        bundle = models.init_params(small_dims(), seed=0)
        with pytest.raises(DimensionError):
            models.generate(bundle.generators[0], ad.constant(np.ones((3, 16))),
                            np.eye(3)[None])

    def test_discriminate_zero_weights(self):
        bundle = models.init_params(small_dims(), seed=0)
        for p in bundle.discriminator.params():
            p.data[...] = 0.0
        disc = bundle.discriminator
        critic, probs = models.discriminate(
            disc, models.project(disc, ad.constant(np.ones((4, 10)))), np.eye(4))
        assert np.all(critic.data == 0.0)
        assert np.all(probs.data == 0.5)

    def test_discriminate_probs_in_unit_interval(self):
        bundle = models.init_params(small_dims(), seed=5)
        disc = bundle.discriminator
        rng = np.random.default_rng(6)
        for _ in range(100):
            feats = ad.constant(rng.standard_normal((3, 10)))
            _, probs = models.discriminate(disc, models.project(disc, feats),
                                           np.eye(3))
            assert np.all((probs.data > 0) & (probs.data < 1))

    def test_discriminate_takes_projections(self):
        bundle = models.init_params(small_dims(), seed=0)
        disc = bundle.discriminator
        feats = ad.constant(np.ones((4, 10)))
        norm = np.eye(2)
        assert models.project(disc, feats).shape == (4, 32)
        with pytest.raises(DimensionError):  # unprojected rows
            models.discriminate(disc, feats, norm)
        with pytest.raises(DimensionError):  # 5 rows are not blocks of 2 subjects
            models.discriminator_gradient_norms(
                disc, models.project(disc, ad.constant(np.ones((5, 10)))), norm,
                models.first_layer_gram(disc))

    def test_gradient_norms_match_numpy_input_gradient(self):
        # the hidden-space norms of a 5-block stack against the row norms of
        # d(sum critic)/d(input) written out in numpy, one block at a time
        bundle = models.init_params(small_dims(), seed=7)
        disc = bundle.discriminator
        rng = np.random.default_rng(8)
        n, blocks = 6, 5
        affin = rng.uniform(size=(n, n))
        norm = np.full((n, n), 0.1) + np.eye(n) * 0.4 + 0.05 * (affin + affin.T)
        stacked = rng.uniform(0.1, 1.0, size=(n * blocks, 10))
        w1, w2, wc = disc.layer1.data, disc.layer2.data, disc.critic_head.data

        def input_gradient(x):
            pre1 = norm @ (x @ w1)
            pre2 = norm @ (np.maximum(pre1, 0.0) @ w2)
            g2 = (norm.T @ np.ones((n, 1))) @ wc.T * (pre2 > 0)
            g1 = (norm.T @ g2) @ w2.T * (pre1 > 0)
            return (norm.T @ g1) @ w1.T

        grad = np.vstack([input_gradient(stacked[b * n:(b + 1) * n]) for b in range(blocks)])

        def critic_sum(arr):
            critic, _ = models.discriminate(disc, models.project(disc, ad.Tensor(arr)), norm)
            return critic.data.sum()

        fd = finite_difference(critic_sum, stacked)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5
        norms = models.discriminator_gradient_norms(
            disc, models.project(disc, ad.constant(stacked)), norm,
            models.first_layer_gram(disc))
        assert norms.shape == (n * blocks, 1)
        assert np.abs(norms.data[:, 0] - np.linalg.norm(grad, axis=1)).max() <= 1e-12

    def test_one_pass_critic_matches_per_block_calls(self):
        # the critic step scores [source; fakes; real targets] in one pass
        bundle = models.init_params(small_dims(), seed=11)
        disc = bundle.discriminator
        rng = np.random.default_rng(12)
        n, blocks = 6, 5
        affin = rng.uniform(size=(n, n))
        norm = np.full((n, n), 0.1) + np.eye(n) * 0.4 + 0.05 * (affin + affin.T)
        stacked = rng.uniform(0.1, 1.0, size=(n * blocks, 10))

        critic, probs = models.discriminate(
            disc, models.project(disc, ad.constant(stacked)), norm)
        critic_parts = oracles.split_rows(critic, n)
        probs_parts = oracles.split_rows(probs, n)
        for b in range(blocks):
            block = models.project(disc, ad.constant(stacked[b * n:(b + 1) * n]))
            critic_b, probs_b = models.discriminate(disc, block, norm)
            assert np.abs(critic_parts[b].data - critic_b.data).max() <= 1e-12
            assert np.abs(probs_parts[b].data - probs_b.data).max() <= 1e-12

    def test_one_pass_parameter_gradients_match_per_block_calls(self):
        bundle = models.init_params(small_dims(), seed=13)
        disc = bundle.discriminator
        rng = np.random.default_rng(14)
        n, blocks = 4, 3
        norm = np.full((n, n), 0.2) + np.eye(n) * 0.3
        stacked = rng.uniform(0.1, 1.0, size=(n * blocks, 10))

        def grads(loss_of):
            with ad.Tape() as tape:
                loss = loss_of()
            g = ad.backward(tape, loss)
            return [g[p.node_id].data for p in disc.params()]

        def loss_on(rows):
            proj = models.project(disc, ad.constant(rows))
            critic, probs = models.discriminate(disc, proj, norm)
            norms = models.discriminator_gradient_norms(disc, proj, norm,
                                                        models.first_layer_gram(disc))
            return ad.add(ad.add(ad.mean(ad.mul(critic, critic)), ad.mean(probs)),
                          ad.mean(norms))

        def per_block():
            loss = None
            for b in range(blocks):
                term = loss_on(stacked[b * n:(b + 1) * n])
                loss = term if loss is None else ad.add(loss, term)
            return ad.scale(loss, 1.0 / blocks)

        for a, b in zip(grads(lambda: loss_on(stacked)), grads(per_block)):
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

    def test_all_params_receive_gradient_at_init(self):
        bundle = models.init_params(small_dims(), seed=9)
        rng = np.random.default_rng(10)
        feats = ad.constant(rng.uniform(0.1, 1.0, size=(6, 10)))
        norm = np.full((6, 6), 1.0 / 6) + np.eye(6) * 0.5
        with ad.Tape() as tape:
            z = models.encode(bundle.encoder, feats, norm)
            preds = [models.generate(bundle.generators[j], z, np.stack([norm] * 2))
                     for j in range(2)]
            heads = []
            for p in preds:
                disc = bundle.discriminator
                critic, probs = models.discriminate(disc, models.project(disc, p), norm)
                heads.extend([critic, probs])
            stacked = ad.vstack(heads)
            loss = ad.mean(ad.mul(stacked, stacked))
        grads = ad.backward(tape, loss)
        for p in bundle.all_params():
            g = grads[p.node_id].data
            assert np.any(g != 0.0), "dead parameter at init"


class TestInit:
    def test_seed_determinism_and_difference(self):
        a = models.init_params(small_dims(), seed=1)
        b = models.init_params(small_dims(), seed=1)
        c = models.init_params(small_dims(), seed=2)
        for pa, pb in zip(a.all_params(), b.all_params()):
            assert np.array_equal(pa.data, pb.data)
        assert any(not np.array_equal(pa.data, pc.data)
                   for pa, pc in zip(a.all_params(), c.all_params()))

    def test_glorot_bounds(self):
        bundle = models.init_params(small_dims(), seed=4)
        enc1 = bundle.encoder.layer1.data
        limit = np.sqrt(6.0 / (10 + 32))
        assert np.all(np.abs(enc1) <= limit)

    def test_generator_grid_complete(self):
        dims = models.Dims(r=5, v=4, c=3)
        bundle = models.init_params(dims, seed=0)
        assert len(bundle.generators) == 3
        assert all(len(row) == dims.k for row in bundle.generators)
        gens = [gen for row in bundle.generators for gen in row]
        assert len({id(gen) for gen in gens}) == 3 * dims.k
        for gen in gens:
            assert (gen.layer1.shape, gen.layer2.shape) == ((16, 32), (32, dims.f))


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        bundle = models.init_params(small_dims(), seed=11)
        path = tmp_path / "model.bin"
        models.save_bundle(bundle, path)
        back = models.load_bundle(path)
        assert back.dims == bundle.dims
        for pa, pb in zip(bundle.all_params(), back.all_params()):
            assert np.array_equal(pa.data, pb.data)
        path2 = tmp_path / "model2.bin"
        models.save_bundle(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_format_v1_bytes_pinned(self, tmp_path):
        # weights set without the RNG, so the bytes are fixed across changes
        # to the code: a version 1 file written before stays readable
        bundle = models.init_params(small_dims(), seed=0)
        for i, p in enumerate(bundle.all_params()):
            p.data[...] = (np.arange(p.data.size).reshape(p.data.shape) + 1000 * i) / 7
        path = tmp_path / "model.bin"
        models.save_bundle(bundle, path)
        raw = path.read_bytes()
        assert len(raw) == 40214
        assert hashlib.sha256(raw).hexdigest() == (
            "d933bf26d4ec1b40a31858da9744a6eed8e2959263c7a68e35511c39f3b116e0")
        again = tmp_path / "again.bin"
        models.save_bundle(models.load_bundle(path), again)
        assert again.read_bytes() == raw

    def test_loading_draws_no_weights(self, tmp_path, monkeypatch):
        bundle = models.init_params(small_dims(), seed=11)
        path = tmp_path / "model.bin"
        models.save_bundle(bundle, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_bundle drew random numbers")

        monkeypatch.setattr(models.np.random, "default_rng", no_draws)
        back = models.load_bundle(path)
        for pa, pb in zip(bundle.all_params(), back.all_params()):
            assert np.array_equal(pa.data, pb.data)
            assert pb.requires_grad

    def test_corrupted_magic(self, tmp_path):
        bundle = models.init_params(small_dims(), seed=0)
        path = tmp_path / "model.bin"
        models.save_bundle(bundle, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SerializationError, match="magic"):
            models.load_bundle(path)

    def test_truncated_payload(self, tmp_path):
        bundle = models.init_params(small_dims(), seed=0)
        path = tmp_path / "model.bin"
        models.save_bundle(bundle, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(SerializationError, match="expected"):
            models.load_bundle(path)

    def test_bad_version(self, tmp_path):
        bundle = models.init_params(small_dims(), seed=0)
        path = tmp_path / "model.bin"
        models.save_bundle(bundle, path)
        raw = bytearray(path.read_bytes())
        raw[5] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(SerializationError, match="version"):
            models.load_bundle(path)


def test_forward_permutation_equivariance():
    bundle = models.init_params(small_dims(), seed=12)
    rng = np.random.default_rng(13)
    feats = rng.uniform(size=(6, 10))
    affin = rng.uniform(size=(6, 6))
    affin = (affin + affin.T) / 2
    from connectogen.affinity import normalize_adjacency
    norm = normalize_adjacency(affin)
    perm = rng.permutation(6)

    z = models.encode(bundle.encoder, ad.constant(feats), norm).data
    z_perm = models.encode(bundle.encoder, ad.constant(feats[perm]),
                           normalize_adjacency(affin[np.ix_(perm, perm)])).data
    assert np.allclose(z[perm], z_perm, atol=1e-12)
