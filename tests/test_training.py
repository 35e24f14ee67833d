
import tracemalloc

import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import data, models, training
from connectogen.errors import DimensionError, NumericError, PreconditionError, TrainingError
from connectogen.losses import LossWeights

import oracles


def small_dataset(s=36, r=8, v=3, seed=5):
    return data.simulate_population(s=s, r=r, v=v, clusters=2, seed=seed)


def small_config(iterations=3, seed=2, batch_size=8, **kw):
    return training.TrainingConfig(iterations=iterations, batch_size=batch_size,
                                   seed=seed, **kw)


def record_clusters(monkeypatch) -> list:
    """Patch training so each train() call appends its cluster labels."""
    labels = []
    real = training.cluster_source_embeddings

    def recording(*args, **kwargs):
        assignment = real(*args, **kwargs)
        labels.append(assignment.labels)
        return assignment

    monkeypatch.setattr(training, "cluster_source_embeddings", recording)
    return labels


def constant_copy(weights):
    """The current weights as constants, which no tape records."""
    return [ad.constant(w.data) for w in weights]


class TestTrainLoop:
    def test_completes_and_traces(self):
        bundle, trace = training.train(small_dataset(), 0, small_config())
        assert len(trace.records) == 3
        assert bundle.dims.k == 2
        csv = trace.to_csv()
        assert csv.splitlines()[0] == "iteration,L_D,L_adv,L_gp,L_gdc,L_G,L_top,L_inf"
        assert len(csv.splitlines()) == 4

    def test_seed_determinism_bit_identical(self):
        ds = small_dataset()
        b1, t1 = training.train(ds, 0, small_config(seed=9))
        b2, t2 = training.train(ds, 0, small_config(seed=9))
        for p1, p2 in zip(b1.all_params(), b2.all_params()):
            assert np.array_equal(p1.data, p2.data)
        assert t1.to_csv() == t2.to_csv()

    def test_different_seed_differs(self):
        ds = small_dataset()
        b1, _ = training.train(ds, 0, small_config(seed=9))
        b2, _ = training.train(ds, 0, small_config(seed=10))
        assert any(not np.array_equal(p1.data, p2.data)
                   for p1, p2 in zip(b1.all_params(), b2.all_params()))

    def test_nonneg_loss_components(self):
        _, trace = training.train(small_dataset(), 0, small_config(iterations=4))
        for rec in trace.records:
            assert rec.l_gp >= 0.0
            assert rec.l_gdc >= 0.0
            assert rec.l_inf >= 0.0
            assert rec.l_top >= 0.0

    def test_trace_shows_a_penalty_active_in_any_critic_step(self):
        # at sigma_gp = 1 some critic steps, not always the last of their
        # iteration, get a nonzero penalty; the mean over the steps shows it
        ds = data.simulate_population(s=40, r=8, v=3, seed=1)
        cfg = training.TrainingConfig(iterations=2, seed=1)
        _, trace = training.train(ds, 0, cfg, LossWeights(sigma_gp=1.0))
        assert any(rec.l_gp > 0.0 for rec in trace.records)

    def test_ablation_all_lambdas_zero_runs(self):
        weights = LossWeights(lambda_gdc=0.0, lambda_gp=0.0, lambda_top=0.0,
                              lambda_inf=0.0)
        bundle, trace = training.train(small_dataset(), 0, small_config(), weights)
        assert len(trace.records) == 3

    def test_non_finite_loss_raises(self, monkeypatch):
        # a NaN info-max term must stop training before the Adam step
        real_info_max = training.info_max_loss
        monkeypatch.setattr(training, "info_max_loss",
                            lambda probs, k: ad.scale(real_info_max(probs, k), float("nan")))
        with pytest.raises(TrainingError, match="iteration 0: L_inf is nan"):
            training.train(small_dataset(), 0, small_config())

    def test_cluster_too_small_advises(self):
        ds = small_dataset(s=10)
        with pytest.raises(TrainingError, match="clusters"):
            training.train(ds, 0, small_config(clusters=8))

    def test_source_view_bounds(self):
        with pytest.raises(PreconditionError):
            training.train(small_dataset(), 7, small_config())

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            training.TrainingConfig(batch_size=1)
        with pytest.raises(PreconditionError):
            training.TrainingConfig(n_critic=0)
        for clusters in (0, -1):
            with pytest.raises(PreconditionError, match="clusters"):
                training.TrainingConfig(clusters=clusters)
        for lr in (0.0, -1e-4, float("nan"), float("inf")):
            with pytest.raises(PreconditionError, match="lr"):
                training.TrainingConfig(lr=lr)


def check_critic_batches(monkeypatch, ds, cfg, batch_of):
    """Train, checking that every critic step projects [source; fakes; real
    targets] of cluster j's members at the local indices ``batch_of(step,
    j, sizes)`` picks, ``sizes`` being the cluster sizes; the fakes must be
    bitwise a decode with the current encoder and generator weights through
    the batch's normalized adjacencies.  Returns the batches checked."""
    from connectogen.affinity import learn_affinity, normalize_adjacency, sub_affinity

    bundles = []
    real_init = training.init_params

    def init_params(*args, **kwargs):
        bundles.append(real_init(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(training, "init_params", init_params)
    labels = record_clusters(monkeypatch)
    checked = []
    real_project = training.project

    def project(disc, features):
        bundle = bundles[0]
        if disc is bundle.discriminator:  # a critic step, clusters in order
            step, j = divmod(len(checked), bundle.dims.c)
            members = np.flatnonzero(labels[0] == j)
            local = batch_of(step, j, np.bincount(labels[0], minlength=bundle.dims.c))
            n, k = local.size, ds.k
            views = [ds.feature_matrix(v)[members] for v in range(ds.v)]
            norms = normalize_adjacency(
                sub_affinity(np.stack([learn_affinity(x) for x in views]), local))
            views = [x[local] for x in views]
            encoder = models.EncoderModel(*constant_copy(
                [bundle.encoder.layer1, bundle.encoder.layer2]))
            generators = [models.GeneratorModel(*constant_copy([g.layer1, g.layer2]))
                          for g in bundle.generators[j]]
            z = models.encode(encoder, ad.constant(views[0]), norms[0])
            fakes = models.generate(generators, z, norms[1:]).data
            rows = features.data
            assert np.array_equal(rows[:n], views[0])
            assert np.array_equal(rows[n:(k + 1) * n], fakes)
            assert np.array_equal(rows[(k + 1) * n:], np.vstack(views[1:]))
            checked.append(j)
        return real_project(disc, features)

    monkeypatch.setattr(training, "project", project)
    training.train(ds, 0, cfg)
    return len(checked)


class TestCriticWidth:
    @staticmethod
    def _wide_products(monkeypatch, ds, cfg):
        """The f-wide products of each tape, in tape order: ("matmul", left
        shape, right shape) and ("gram", weight shape)."""
        wide = {}  # tape -> [product], in tape order
        real_matmul, real_gram = ad.matmul, ad.gram

        def matmul(a, b):
            tape = ad._active_tape()
            if tape is not None and ds.f in a.shape + b.shape:
                wide.setdefault(tape, []).append(("matmul", a.shape, b.shape))
            return real_matmul(a, b)

        def gram(w):
            tape = ad._active_tape()
            if tape is not None:
                wide.setdefault(tape, []).append(("gram", w.shape))
            return real_gram(w)

        monkeypatch.setattr(ad, "matmul", matmul)
        monkeypatch.setattr(ad, "gram", gram)
        training.train(ds, 0, cfg)
        return list(wide.values())

    def _check_critic_tapes(self, tapes, ds, cfg, batch_rows):
        # the critic's f-wide products are one projection of each cluster's
        # gathered [source; k fakes; k real] rows and one W1^T W1 per step;
        # no (k*n, f) mix or input gradient may come back
        f, k, hidden = ds.f, ds.k, models.HIDDEN_WIDE
        assert len(tapes) == cfg.n_critic + 1  # the last one is the generator step
        gram = ("gram", (f, hidden))
        for products in tapes[:-1]:
            assert products.count(gram) == 1
            projections = [p for p in products if p != gram]
            assert projections == [("matmul", (n * (2 * k + 1), f), (f, hidden))
                                   for n in batch_rows]

    def test_critic_step_projects_each_cluster_once(self, monkeypatch):
        ds = small_dataset(r=10)
        cfg = small_config(iterations=1, n_critic=2)
        tapes = self._wide_products(monkeypatch, ds, cfg)
        self._check_critic_tapes(tapes, ds, cfg, [cfg.batch_size] * cfg.clusters)

    def test_whole_cluster_projects_all_its_members(self, monkeypatch):
        # a cluster that fits in one batch is projected whole, members*(2k+1) rows
        labels = record_clusters(monkeypatch)
        ds = small_dataset(r=10)
        cfg = small_config(iterations=1, n_critic=2, batch_size=1000)
        tapes = self._wide_products(monkeypatch, ds, cfg)
        sizes = np.bincount(labels[0], minlength=cfg.clusters).tolist()
        assert sizes != [cfg.batch_size] * cfg.clusters
        self._check_critic_tapes(tapes, ds, cfg, sizes)


class TestWholeCluster:
    """A cluster that fits in one batch is trained on all its members, in
    member order, and its fakes are decoded once per iteration."""

    @pytest.mark.parametrize("batch_size", [8, 1000])
    def test_decodes_per_iteration(self, monkeypatch, batch_size):
        calls = []  # (on a tape, into a given buffer) per generate call
        real = training.generate

        def counting(generators, z, norm_t, out=None):
            calls.append((ad._active_tape() is not None, out is not None))
            return real(generators, z, norm_t, out=out)

        monkeypatch.setattr(training, "generate", counting)
        labels = record_clusters(monkeypatch)
        cfg = small_config(iterations=2, n_critic=3, batch_size=batch_size)
        training.train(small_dataset(), 0, cfg)
        sizes = np.bincount(labels[0])
        assert (batch_size >= sizes).all() or (batch_size < sizes).all()
        # every decode lands in the fake slots: a whole cluster's once at the
        # first critic step, a larger cluster's once per critic step, and
        # each cluster's once on the generator step's tape
        critic_steps = 1 if batch_size >= sizes.max() else cfg.n_critic
        per_iteration = ([(False, True)] * cfg.clusters * critic_steps
                         + [(True, True)] * cfg.clusters)
        assert calls == per_iteration * cfg.iterations

    def test_critic_sees_a_fresh_decode_of_the_members(self, monkeypatch):
        # every critic step projects all members in member order
        ds = small_dataset()
        cfg = small_config(iterations=3, n_critic=2, batch_size=1000)
        checked = check_critic_batches(monkeypatch, ds, cfg,
                                       lambda step, j, sizes: np.arange(sizes[j]))
        assert checked == cfg.iterations * cfg.n_critic * cfg.clusters

    def test_batch_beyond_the_largest_cluster_changes_nothing(self, monkeypatch):
        labels = record_clusters(monkeypatch)
        ds = small_dataset()
        b1, t1 = training.train(ds, 0, small_config(batch_size=1000))
        largest = int(np.bincount(labels[0]).max())
        b2, t2 = training.train(ds, 0, small_config(batch_size=largest))
        assert t1.to_csv() == t2.to_csv()
        for p1, p2 in zip(b1.all_params(), b2.all_params()):
            assert p1.data.tobytes() == p2.data.tobytes()
        _, t3 = training.train(ds, 0, small_config(batch_size=largest - 1))
        assert t3.to_csv() != t1.to_csv()


class TestDrawnCluster:
    """A cluster larger than the batch draws a fresh batch at every step."""

    def test_critic_sees_a_fresh_decode_of_each_draw(self, monkeypatch):
        # every critic step projects the batch_size members drawn for it,
        # cluster by cluster, from the seed's first child stream; each
        # iteration's generator step draws after its n_critic critic steps
        ds = small_dataset()
        cfg = small_config(iterations=3, n_critic=2, batch_size=8)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[0])
        draws = []  # per critic step, one draw per cluster

        def batch_of(step, j, sizes):
            assert (sizes > cfg.batch_size).all()
            while len(draws) <= step:
                steps = [[rng.choice(m, size=cfg.batch_size, replace=False) for m in sizes]
                         for _ in range(cfg.n_critic + 1)]
                draws.extend(steps[:-1])  # the last is the generator step's
            return draws[step][j]

        checked = check_critic_batches(monkeypatch, ds, cfg, batch_of)
        assert checked == cfg.iterations * cfg.n_critic * cfg.clusters
        assert len(draws) == cfg.iterations * cfg.n_critic


class TestOpCounts:
    @staticmethod
    def _records(monkeypatch, batch_size):
        """Tape records of [critic step, generator step], for k = 2 and k = 5."""
        records = []
        minimize = ad.Adam.minimize

        def counting(self, tape, loss):
            records.append(len(tape._records))
            minimize(self, tape, loss)

        monkeypatch.setattr(ad.Adam, "minimize", counting)
        counts = {}
        for v in (3, 6):
            records.clear()
            training.train(small_dataset(s=24, r=6, v=v), 0,
                           small_config(iterations=1, n_critic=1, batch_size=batch_size))
            counts[v] = list(records)  # [critic step, generator step]
        return counts

    def test_step_records_do_not_grow_with_views(self, monkeypatch):
        # one critic step and one generator step record the same number of
        # tape ops for k = 2 and k = 5 target views
        counts = self._records(monkeypatch, batch_size=8)
        assert counts[3] == counts[6], counts

    def test_whole_cluster_step_records_do_not_grow_with_views(self, monkeypatch):
        counts = self._records(monkeypatch, batch_size=1000)
        assert counts[3] == counts[6], counts
        assert counts == self._records(monkeypatch, batch_size=8)


class TestParameterIsolation:
    def _setup(self):
        ds = small_dataset()
        cfg = small_config(iterations=1)
        return ds, cfg

    def test_critic_steps_touch_only_discriminator(self):
        ds, cfg = self._setup()
        cfg_no_gen = training.TrainingConfig(iterations=1, batch_size=8, seed=2,
                                             n_critic=1)
        # freeze generator updates by zeroing their learning rate via a probe:
        # run one full iteration and compare param groups against init
        bundle0 = models.init_params(models.Dims(r=ds.r, v=ds.v, c=2), seed=cfg.seed)
        bundle1, _ = training.train(ds, 0, cfg_no_gen)
        disc_changed = any(
            not np.array_equal(p0.data, p1.data)
            for p0, p1 in zip(bundle0.discriminator.params(),
                              bundle1.discriminator.params()))
        assert disc_changed

    def test_generator_step_changes_all_generator_params(self):
        ds, cfg = self._setup()
        bundle0 = models.init_params(models.Dims(r=ds.r, v=ds.v, c=2), seed=cfg.seed)
        bundle1, _ = training.train(ds, 0, cfg)
        for row0, row1 in zip(bundle0.generators, bundle1.generators):
            for g0, g1 in zip(row0, row1):
                for p0, p1 in zip(g0.params(), g1.params()):
                    assert not np.array_equal(p0.data, p1.data)
        for p0, p1 in zip(bundle0.encoder.params(), bundle1.encoder.params()):
            assert not np.array_equal(p0.data, p1.data)


    def test_discriminator_is_constant_in_the_generator_step(self, monkeypatch):
        tapes = []  # (optimizer, leaves of the tape it stepped on)
        minimize = ad.Adam.minimize

        def recording(self, tape, loss):
            tapes.append((self, list(tape._leaves.values())))
            minimize(self, tape, loss)

        monkeypatch.setattr(ad.Adam, "minimize", recording)
        bundle, _ = training.train(small_dataset(), 0, small_config(iterations=1))
        disc = {id(p) for p in bundle.discriminator.params()}
        gen = {id(p) for p in bundle.encoder.params() + bundle.generator_params()}
        critic_leaves, gen_leaves = tapes[0][1], tapes[-1][1]
        assert gen <= {id(t) for t in gen_leaves}
        assert not disc & {id(t) for t in gen_leaves}
        assert disc <= {id(t) for t in critic_leaves}

    def test_frozen_discriminator_shares_the_weights(self):
        disc = models.init_params(models.Dims(r=6, v=3, c=1), seed=0).discriminator
        fixed = models.frozen(disc)
        for p, q in zip(disc.params(), fixed.params()):
            assert q.data is p.data and not q.requires_grad


class TestStreamedStep:
    """Training steps each parameter inside the backward (Adam.minimize)."""

    @pytest.mark.parametrize("batch_size", [8, 1000])
    def test_matches_backward_then_step(self, monkeypatch, batch_size):
        ds, cfg = small_dataset(), small_config(iterations=1, batch_size=batch_size)
        streamed, trace = training.train(ds, 0, cfg)

        def backward_then_step(self, tape, loss):
            self.step(ad.backward(tape, loss), tape)

        monkeypatch.setattr(ad.Adam, "minimize", backward_then_step)
        reference, ref_trace = training.train(ds, 0, cfg)
        assert [p.data.tobytes() for p in streamed.all_params()] == \
            [p.data.tobytes() for p in reference.all_params()]
        assert trace.to_csv() == ref_trace.to_csv()

    def test_each_leaf_handed_over_once(self, monkeypatch):
        handed = []  # (the tape's leaf ids, the ids handed over)
        backward = ad.backward

        def noting(tape, loss, consume):
            ids = []

            def note(node_id, grad):
                ids.append(node_id)
                consume(node_id, grad)

            backward(tape, loss, note)
            handed.append((sorted(tape._leaves), ids))

        monkeypatch.setattr(ad, "backward", noting)
        cfg = small_config(iterations=1)
        training.train(small_dataset(), 0, cfg)
        assert len(handed) == cfg.n_critic + 1
        for leaves, ids in handed:
            assert sorted(ids) == leaves

    def test_generator_step_memory_bound(self, monkeypatch):
        # one generator step at the AAL atlas size r = 116, measured from its
        # first call, frozen(disc), to the end of train(): its transient
        # allocations were 7.6 (32, f) decoder weights' worth when the step
        # held all c*k decoder-weight gradients and the L1 loss terms'
        # temporaries, and are 5.1 with both streamed and fused
        ds = data.simulate_population(s=24, r=116, v=3, clusters=2, seed=3)
        frozen, live = training.frozen, []

        def resetting(disc):
            tracemalloc.reset_peak()
            live.append(tracemalloc.get_traced_memory()[0])
            return frozen(disc)

        monkeypatch.setattr(training, "frozen", resetting)
        tracemalloc.start()
        try:
            training.train(ds, 0, training.TrainingConfig(iterations=1, n_critic=1, seed=3))
            transient = tracemalloc.get_traced_memory()[1] - live[-1]
        finally:
            tracemalloc.stop()
        decoder_weight = 32 * ds.f * 8
        assert transient < 6 * decoder_weight, transient / decoder_weight


class TestStepIsolationDirect:
    """One hand-driven critic step and one generator step on a live bundle,
    with the stacked losses checked against the per-view oracles."""

    def test_single_critic_and_generator_step(self):
        from connectogen.affinity import learn_affinity, normalize_adjacency
        from connectogen.losses import (adversarial_loss,
                                        discriminator_loss,
                                        domain_classification_loss,
                                        generator_fooling_term, generator_loss,
                                        info_max_loss)
        from connectogen.models import discriminate, encode, generate, project

        ds = small_dataset(s=12, r=6, v=3)
        n, k = 12, 2
        bundle = models.init_params(models.Dims(r=6, v=3, c=1), seed=0)
        feats = {v: ds.feature_matrix(v) for v in range(3)}
        norm = normalize_adjacency(learn_affinity(feats[0]))
        weights = LossWeights(lambda_gp=0.0)

        def score(x):
            return discriminate(bundle.discriminator, project(bundle.discriminator, x), norm)

        def snapshot(params):
            return [p.data.copy() for p in params]

        def close(value, reference):
            assert abs(value.item() - reference.item()) <= 1e-12 * abs(reference.item())

        d_before = snapshot(bundle.discriminator.params())
        g_before = snapshot(bundle.encoder.params() + bundle.generator_params())

        # critic step: fakes detached
        z = encode(bundle.encoder, ad.constant(feats[0]), norm)
        fakes = ad.constant(generate(bundle.generators[0], z, np.stack([norm] * k)).data)
        reals = ad.constant(np.vstack([feats[1], feats[2]]))
        opt_d = ad.Adam(bundle.discriminator.params(), lr=1e-3)
        with ad.Tape() as tape:
            critic_real, _ = score(ad.constant(feats[0]))
            critic_fakes, probs_fake = score(fakes)
            probs_real = score(reals)[1]
            l_adv = adversarial_loss(critic_real, critic_fakes)
            l_gdc = domain_classification_loss(probs_fake, probs_real, k)
            loss_d = discriminator_loss([(l_adv, ad.constant([[0.0]]), l_gdc)], weights)
        close(l_adv, oracles.adversarial_loss_per_view(critic_real,
                                                       oracles.split_rows(critic_fakes, n)))
        close(l_gdc, oracles.domain_classification_loss_per_view(
            oracles.split_rows(probs_fake, n), oracles.split_rows(probs_real, n)))
        opt_d.step(ad.backward(tape, loss_d), tape)

        assert all(not np.array_equal(b, p.data)
                   for b, p in zip(d_before, bundle.discriminator.params()))
        assert all(np.array_equal(b, p.data)
                   for b, p in zip(g_before,
                                   bundle.encoder.params() + bundle.generator_params()))

        # generator step: discriminator params must stay frozen
        d_mid = snapshot(bundle.discriminator.params())
        gen_params = bundle.encoder.params() + bundle.generator_params()
        opt_g = ad.Adam(gen_params, lr=1e-3)
        with ad.Tape() as tape:
            z = encode(bundle.encoder, ad.constant(feats[0]), norm)
            critic_fakes, probs_fake = score(
                generate(bundle.generators[0], z, np.stack([norm] * k)))
            fooling = generator_fooling_term(critic_fakes)
            l_inf = info_max_loss(probs_fake, k)
            loss_g = generator_loss([(fooling, ad.constant([[0.0]]), l_inf)], weights)
        close(fooling, oracles.generator_fooling_term_per_view(oracles.split_rows(critic_fakes, n)))
        close(l_inf, oracles.info_max_loss_per_view(oracles.split_rows(probs_fake, n)))
        opt_g.step(ad.backward(tape, loss_g), tape)

        assert all(np.array_equal(b, p.data)
                   for b, p in zip(d_mid, bundle.discriminator.params()))
        assert all(not np.array_equal(b, p.data)
                   for b, p in zip(g_before, gen_params))


class TestPredict:
    def _trained(self):
        ds = small_dataset()
        bundle, _ = training.train(ds, 0, small_config(iterations=2))
        return ds, bundle

    def test_output_structure(self):
        ds, bundle = self._trained()
        pred = training.predict_multigraph(bundle, ds.feature_matrix(0)[:5])
        assert pred.shape == (5, ds.r, ds.r, ds.k)
        for s in range(5):
            for i in range(ds.k):
                sl = pred[s, :, :, i]
                assert np.array_equal(sl, sl.T)
                assert np.all(np.diag(sl) == 0)
                assert np.all(sl >= 0)

    def test_single_cluster_average_is_identity(self):
        import connectogen.autodiff as ad
        from connectogen.affinity import learn_affinity, normalize_adjacency
        from connectogen.models import encode, generate
        from connectogen.data import devectorize

        ds = small_dataset()
        bundle, _ = training.train(ds, 0, small_config(iterations=1, clusters=1))
        feats = ds.feature_matrix(0)[:6]
        pred = training.predict_multigraph(bundle, feats)
        norm = normalize_adjacency(learn_affinity(feats))
        z = encode(bundle.encoder, ad.constant(feats), norm)
        direct = generate([bundle.generators[0][0]], z, norm[None]).data
        for s in range(6):
            assert np.allclose(pred[s, :, :, 0], devectorize(direct[s], ds.r))

    def test_matches_per_view_per_subject_expansion(self):
        # the batched decode and expansion equal a loop over views, clusters
        # and subjects, bit for bit
        from connectogen.affinity import learn_affinity, normalize_adjacency
        from connectogen.data import devectorize
        from connectogen.models import encode, generate

        ds, bundle = self._trained()
        feats = ds.feature_matrix(0)[:6]
        pred = training.predict_multigraph(bundle, feats)
        norm = normalize_adjacency(learn_affinity(feats))
        z = encode(bundle.encoder, ad.constant(feats), norm)
        for i in range(ds.k):
            acc = np.zeros((6, ds.f))
            for j in range(bundle.dims.c):
                acc += generate([bundle.generators[j][i]], z, norm[None]).data
            acc /= bundle.dims.c
            for s in range(6):
                assert np.array_equal(pred[s, :, :, i], devectorize(acc[s], ds.r))

    def test_permutation_equivariance(self):
        ds, bundle = self._trained()
        feats = ds.feature_matrix(0)[:7]
        rng = np.random.default_rng(0)
        perm = rng.permutation(7)
        base = training.predict_multigraph(bundle, feats)
        moved = training.predict_multigraph(bundle, feats[perm])
        assert np.allclose(base[perm], moved, atol=1e-10)

    def test_non_finite_prediction_rejected(self):
        ds, bundle = self._trained()
        bundle.generators[0][1].layer2.data[0, 0] = np.inf
        with pytest.raises(NumericError, match="view 1"):
            training.predict_multigraph(bundle, ds.feature_matrix(0)[:4])

    def test_dim_mismatch_rejected(self):
        _, bundle = self._trained()
        with pytest.raises(DimensionError):
            training.predict_multigraph(bundle, np.zeros((3, 7)))

    def test_single_subject_prediction(self):
        ds, bundle = self._trained()
        pred = training.predict_multigraph(bundle, ds.feature_matrix(0)[:1])
        assert pred.shape[0] == 1

    def test_rerun_identical(self):
        ds, bundle = self._trained()
        feats = ds.feature_matrix(0)[:4]
        a = training.predict_multigraph(bundle, feats)
        b = training.predict_multigraph(bundle, feats)
        assert np.array_equal(a, b)


def test_target_views_mapping():
    assert training.target_views(6, 0) == [1, 2, 3, 4, 5]
    assert training.target_views(6, 3) == [0, 1, 2, 4, 5]
