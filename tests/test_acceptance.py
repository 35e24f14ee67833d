"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass lines.  The
end-to-end criteria (5-8) train real models and take a few minutes total.
"""

import time

import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import (
    affinity, cli, clustering, data, evaluation, losses, models, topology,
    training,
)
from connectogen.losses import LossWeights
from connectogen.training import TrainingConfig, target_views

import oracles

GREEN = "[PASS]"


def report(criterion: int, message: str) -> None:
    print(f"\n{GREEN} criterion {criterion}: {message}")


def _case_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12))


def _grad_via_tape(build, x0):
    p = ad.parameter(x0.copy())
    with ad.Tape() as tape:
        loss = build(p)
    return ad.backward(tape, loss)[p.node_id].data


def _check_op(build, sampler, cases, rng, tol=1e-4):
    worst = 0.0
    for _ in range(cases):
        x0 = sampler(rng)
        grad = _grad_via_tape(build, x0)
        fd = oracles.finite_difference(lambda arr: build(ad.Tensor(arr)).item(), x0)
        worst = max(worst, _case_rel_err(grad, fd))
    assert worst < tol, f"worst rel err {worst:.2e}"
    return worst


def test_criterion_1_autodiff_vs_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    cases = 50

    def away_from_kinks(r):
        x = r.standard_normal((2, 3))
        x[np.abs(x) < 0.05] += 0.2  # keep clear of relu/abs/clip corners
        return x

    def positive(r):
        return r.uniform(0.4, 1.6, size=(2, 3))

    b_const = np.random.default_rng(7).standard_normal((2, 3))
    m_const = np.random.default_rng(8).standard_normal((3, 2))

    def sq_mean(t):
        return ad.mean(ad.mul(ad.add(t, ad.constant(np.full(t.shape, 0.3))),
                              ad.add(t, ad.constant(np.full(t.shape, 0.3)))))

    primitives = {
        "matmul": lambda x: ad.mean(ad.mul(ad.matmul(x, ad.constant(m_const)),
                                           ad.matmul(x, ad.constant(m_const)))),
        "add": lambda x: sq_mean(ad.add(x, ad.constant(b_const))),
        "sub": lambda x: sq_mean(ad.sub(x, ad.constant(b_const))),
        "mul": lambda x: sq_mean(ad.mul(x, ad.constant(b_const))),
        "scale": lambda x: sq_mean(ad.scale(x, -2.3)),
        "relu": lambda x: sq_mean(ad.relu(x)),
        "sigmoid": lambda x: sq_mean(ad.sigmoid(x)),
        "absolute": lambda x: sq_mean(oracles.absolute(x)),
        "clip": lambda x: sq_mean(ad.clip(x, -0.5, 0.5)),
        "transpose": lambda x: sq_mean(ad.transpose(x)),
        "slice_rows": lambda x: sq_mean(ad.vstack([ad.slice_rows(x, 1, 2),
                                                   ad.slice_rows(x, 0, 1)])),
        "vstack": lambda x: sq_mean(ad.vstack([x, ad.constant(b_const)])),
        "mean": lambda x: ad.mul(ad.mean(x), ad.mean(x)),
    }
    positives = {
        "sqrt": lambda x: sq_mean(ad.sqrt(x)),
        "log": lambda x: sq_mean(ad.log(x)),
    }
    worst = {}
    for name, build in primitives.items():
        worst[name] = _check_op(build, away_from_kinks, cases, rng)
    for name, build in positives.items():
        worst[name] = _check_op(build, positive, cases, rng)

    r = 4
    # the EC op on raw rows, through the relu it applies; positive features
    # keep finite differences off the relu kink
    ec_feats = np.random.default_rng(9).uniform(0.1, 1.0, size=(2, 6))
    w_ec = np.random.default_rng(13).standard_normal((2, r))
    worst["batched_eigenvector_rows"] = _check_op(
        lambda x: ad.mean(ad.mul(topology.batched_eigenvector_rows(x, r),
                                 ad.constant(w_ec))),
        lambda rr: ec_feats + rr.uniform(0.0, 0.2, size=ec_feats.shape), cases, rng)
    adj = np.random.default_rng(14).uniform(size=(2, 2))
    worst["stack_matmul.one"] = _check_op(
        lambda x: sq_mean(ad.stack_matmul(adj, x)),
        lambda rr: rr.standard_normal((6, 3)), cases, rng)
    adj_stack = np.random.default_rng(18).uniform(size=(3, 2, 2))
    worst["stack_matmul"] = _check_op(
        lambda x: sq_mean(ad.stack_matmul(adj_stack, x)),
        lambda rr: rr.standard_normal((6, 3)), cases, rng)
    worst["stack_matmul.shared"] = _check_op(
        lambda x: sq_mean(ad.stack_matmul(adj_stack, x)),
        lambda rr: rr.standard_normal((2, 3)), cases, rng)
    # per_block_matmul w.r.t. its rows and each of its three weights
    block_inputs = [np.random.default_rng(19).standard_normal((6, 3))] + [
        np.random.default_rng(20 + b).standard_normal((3, 2)) for b in range(3)]
    for which in range(4):
        def per_block(x, which=which):
            tensors = [ad.constant(v) for v in block_inputs]
            tensors[which] = x
            return sq_mean(ad.per_block_matmul(tensors[0], tensors[1:]))

        worst[f"per_block_matmul.{which}"] = _check_op(
            per_block, lambda rr, which=which: rr.standard_normal(block_inputs[which].shape),
            cases, rng)
    # an asymmetric weight makes the upstream gradient asymmetric, which the
    # backward w (g + g^T) must handle; the penalty's own upstream is symmetric
    gram_weight = np.random.default_rng(24).standard_normal((3, 3))
    worst["gram"] = _check_op(lambda x: sq_mean(ad.mul(ad.gram(x), ad.constant(gram_weight))),
                              away_from_kinks, cases, rng)
    # matmul w.r.t. its right operand behind a tall, wide left one, the shape
    # of a projection, whose weight gradient takes the (g^T a)^T form
    left_const = np.random.default_rng(23).standard_normal((40, 24))
    worst["matmul.right"] = _check_op(
        lambda x: sq_mean(ad.matmul(ad.constant(left_const), x)),
        lambda rr: rr.standard_normal((24, 2)), cases, rng)
    # the topological loss's fused L1 op, kept clear of its kinks at x = target
    l1_target = np.random.default_rng(25).standard_normal((2, 3))
    worst["mean_abs_diff"] = _check_op(
        lambda x: sq_mean(ad.mean_abs_diff(x, l1_target)),
        lambda rr: l1_target + away_from_kinks(rr), cases, rng)

    # composite networks: gradients w.r.t. parameter entries
    dims = models.Dims(r=4, v=3, c=1)
    norm = affinity.normalize_adjacency(
        oracles.random_connectivity(np.random.default_rng(10), 5) + 0.2)
    feats = np.random.default_rng(11).uniform(0.1, 1.0, size=(5, dims.f))
    z_in = np.random.default_rng(12).standard_normal((5, 16))

    def composite_check(name, param_of, forward, cases=50, entries=None, clear=None):
        """Worst relative error over ``cases`` bundles (seeds 200, 201, ...).

        ``entries`` checks that many random entries per case instead of all
        of them.  Bundles for which ``clear`` is false are skipped; more
        than ``cases`` skips fail the check."""
        worst_c = 0.0
        pick = np.random.default_rng(17)
        checked = skipped = 0
        seed = 200
        while checked < cases:
            bundle = models.init_params(dims, seed=seed)
            seed += 1
            if clear is not None and not clear(bundle):
                skipped += 1
                assert skipped <= cases, f"{name}: {skipped} cases skipped"
                continue
            checked += 1
            param = param_of(bundle)

            def run(arr):
                param.data[...] = arr
                return forward(bundle).item()

            x0 = param.data.copy()
            with ad.Tape() as tape:
                loss = forward(bundle)
            grad = ad.backward(tape, loss)[param.node_id].data
            if entries is None:
                fd = oracles.finite_difference(run, x0)
            else:
                flat = pick.choice(x0.size, size=entries, replace=False)
                grad = grad.ravel()[flat]

                def run_entries(values):
                    arr = x0.copy()
                    np.put(arr, flat, values)
                    return run(arr)

                fd = oracles.finite_difference(run_entries, x0.ravel()[flat])
            worst_c = max(worst_c, _case_rel_err(grad, fd))
        assert worst_c < 1e-4, f"{name}: worst rel err {worst_c:.2e}"
        return worst_c

    f_c = ad.constant(feats)
    z_c = ad.constant(z_in)
    worst["encoder"] = composite_check(
        "encoder", lambda b: b.encoder.layer1,
        lambda b: ad.mean(ad.mul(models.encode(b.encoder, f_c, norm),
                                 models.encode(b.encoder, f_c, norm))))
    norm_views = np.stack([norm, norm.T @ norm])  # the k = 2 views' adjacencies
    worst["generator"] = composite_check(
        "generator", lambda b: b.generators[0][1].layer2,
        lambda b: ad.mean(ad.mul(models.generate(b.generators[0], z_c, norm_views),
                                 models.generate(b.generators[0], z_c, norm_views))))

    def disc_loss(b):
        critic, probs = models.discriminate(
            b.discriminator, models.project(b.discriminator, f_c), norm)
        return ad.add(ad.mean(ad.mul(critic, critic)), ad.mean(probs))

    worst["discriminator"] = composite_check(
        "discriminator", lambda b: b.discriminator.layer1, disc_loss)

    # the gradient penalty: layer1 enters through the projection and W1^T W1;
    # sigma is small, so the hinge is active
    gp_feats = np.random.default_rng(15).uniform(0.1, 1.0, size=(15, dims.f))
    gp_alpha = np.random.default_rng(16).uniform(size=(10, 1))  # the penalty's mix draws
    gp_mixes = np.split(gp_alpha * np.tile(gp_feats[:5], (2, 1))
                        + (1.0 - gp_alpha) * gp_feats[5:], 2)
    gp_c = ad.constant(gp_feats)

    def gp_loss(b):
        disc = b.discriminator
        proj = models.project(disc, gp_c)
        return losses.gradient_penalty(
            lambda mix: models.discriminator_gradient_norms(
                disc, mix, norm, models.first_layer_gram(disc)),
            ad.slice_rows(proj, 0, 5), ad.slice_rows(proj, 5, 15), 1e-3,
            np.random.default_rng(16))

    def clear_of_relu_kinks(b):
        # the penalty's relu masks make it jump where a pre-activation at a
        # mix crosses zero, and a finite difference across a jump measures
        # nothing; keep every pre-activation 10x the step away from zero
        disc = b.discriminator
        pre1 = [norm @ (mix @ disc.layer1.data) for mix in gp_mixes]
        pre2 = [norm @ (np.maximum(p, 0.0) @ disc.layer2.data) for p in pre1]
        return min(np.abs(p).min() for p in pre1 + pre2) > 1e-4

    for layer, entries in (("layer1", None), ("layer2", 128), ("critic_head", None)):
        worst[f"gradient_penalty.{layer}"] = composite_check(
            f"gradient_penalty.{layer}",
            lambda b, layer=layer: getattr(b.discriminator, layer), gp_loss,
            entries=entries, clear=clear_of_relu_kinks)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"{len(worst)} primitives/composites x 50 cases, worst rel err "
              f"{max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_2_topology_oracle_equivalence():
    rng = np.random.default_rng(300)
    graphs = [oracles.random_connectivity(rng, int(rng.integers(4, 9)), density=0.75)
              for _ in range(20)]
    worst_comb, worst_spec = 0.0, 0.0
    for w in graphs:
        scores = topology.centralities(w)
        worst_comb = max(
            worst_comb,
            np.abs(scores["cc"] - oracles.closeness_by_enumeration(w)).max(),
            np.abs(scores["bc"] - oracles.betweenness_by_enumeration(w)).max(),
            np.abs(scores["eff"] - oracles.effective_size_direct(w)).max(),
            np.abs(scores["clst"] - oracles.clustering_by_triangles(w)).max())
        worst_spec = max(
            worst_spec,
            np.abs(scores["ec"] - oracles.eigenvector_dense(w)).max(),
            np.abs(scores["pc"] - oracles.pagerank_by_solve(w)).max())
    assert worst_comb < 1e-8
    assert worst_spec < 1e-6

    star = np.zeros((5, 5))
    star[0, 1:] = star[1:, 0] = 1.0
    assert topology.betweenness(star)[0] == 1.0
    k3 = np.ones((3, 3)) - np.eye(3)
    assert np.allclose(topology.centralities(k3)["clst"], 1.0)
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], float)
    assert np.allclose(topology.centralities(c4)["ec"], 0.5)
    k4 = np.ones((4, 4)) - np.eye(4)
    assert np.allclose(topology.centralities(k4)["pc"], 0.25)
    report(2, f"6 metrics vs oracles on 20 graphs (combinatorial {worst_comb:.1e}, "
              f"spectral {worst_spec:.1e}) + exact fixtures")


def test_criterion_3_gcn_forward_hand_case():
    weight = ad.parameter([[3.0]])
    norm = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    out = ad.relu(models.gcn_forward(weight, ad.constant([[1.0], [0.0]]), norm))
    err = np.abs(out.data - np.array([[2.0], [1.0]])).max()
    assert err < 1e-12
    report(3, f"two-node propagation hand case, max abs err {err:.1e}")


def test_criterion_4_loss_formula_properties():
    rng = np.random.default_rng(400)

    # gradient penalty: constant critic (zero input gradient) and a linear
    # critic f @ w, whose input gradient is w on every row, with ||w|| < sigma
    sigma = 5.0
    src = ad.constant(rng.uniform(size=(60, 24)))
    fakes = ad.constant(rng.uniform(size=(60, 24)))
    constant_critic_norms = lambda mix: ad.constant(np.zeros((mix.shape[0], 1)))
    gp_const = losses.gradient_penalty(constant_critic_norms, src, fakes, sigma, rng).item()
    assert gp_const == 0.0
    w = rng.standard_normal(24)
    w *= 0.8 * sigma / np.linalg.norm(w)
    gp_lin = losses.gradient_penalty(
        lambda mix: ad.constant(np.full((mix.shape[0], 1), np.linalg.norm(w))),
        src, fakes, sigma, rng).item()
    assert gp_lin == 0.0

    # zero critic adversarial loss, two target views
    zeros = ad.constant(np.zeros((7, 1)))
    assert losses.adversarial_loss(zeros, ad.constant(np.zeros((14, 1)))).item() == 0.0

    # perfectly labeled domain classification
    gdc = losses.domain_classification_loss(
        ad.constant(np.zeros((5, 1))), ad.constant(np.ones((5, 1))), 1).item()
    assert gdc == 0.0

    # info-max at 0.5
    inf_val = losses.info_max_loss(ad.constant([[0.5]]), 1).item()
    assert abs(inf_val - np.log(2.0)) < 1e-10

    # KL(P, P) = 0
    scores = rng.uniform(size=300)
    assert abs(evaluation.kl_divergence(scores, scores)) < 1e-12

    # Eq-6 and Eq-12 totals equal component recomputation
    weights = LossWeights(lambda_gp=0.37, lambda_gdc=1.4, lambda_top=0.23,
                          lambda_inf=0.9)
    d_parts, d_expected = [], 0.0
    g_parts, g_expected = [], 0.0
    for _ in range(3):
        a, g, c = rng.standard_normal(3)
        d_parts.append(tuple(ad.constant([[x]]) for x in (a, g, c)))
        d_expected += a + 0.37 * g + 1.4 * c
        fool, top, inf = rng.standard_normal(3)
        g_parts.append(tuple(ad.constant([[x]]) for x in (fool, top, inf)))
        g_expected += fool + 0.23 * top + 0.9 * inf
    d_err = abs(losses.discriminator_loss(d_parts, weights).item() - d_expected)
    g_err = abs(losses.generator_loss(g_parts, weights).item() - g_expected)
    assert d_err < 1e-12 and g_err < 1e-12
    report(4, f"gp zeros, adv zero, gdc zero, inf ln2 ({inf_val:.10f}), KL(P,P)=0, "
              f"objective recomposition errs {d_err:.1e}/{g_err:.1e}")


def test_criterion_5_clustering_recovery():
    t0 = time.perf_counter()
    aris = []
    for seed in range(10):
        ds = data.simulate_population(s=120, r=35, v=6, clusters=2,
                                      separation=4.0, noise=0.1, seed=seed)
        feats = ds.feature_matrix(0)
        norm = affinity.normalize_adjacency(affinity.learn_affinity(feats))
        bundle = models.init_params(models.Dims(r=35, v=6, c=2), seed=seed)
        z = models.encode(bundle.encoder, ad.constant(feats), norm)
        labels = clustering.cluster_source_embeddings(z.data, c=2, seed=seed).labels
        aris.append(oracles.adjusted_rand_index(labels, ds.planted_clusters))
    elapsed = time.perf_counter() - t0
    hits = sum(a >= 0.9 for a in aris)
    assert hits >= 9, f"ARI >= 0.9 in only {hits}/10 seeds: {aris}"
    assert elapsed < 60.0
    report(5, f"ARI >= 0.9 in {hits}/10 seeds (min {min(aris):.3f}), {elapsed:.1f}s")


def test_criterion_6_training_efficacy():
    ds = data.simulate_population(s=120, r=35, v=6, clusters=2, seed=7)
    train_idx, test_idx = data.ratio_split(ds, 0.9, seed=1)
    trainset, testset = ds.subset(train_idx), ds.subset(test_idx)
    targets = target_views(6, 0)
    truth = np.stack([testset.tensor[:, t] for t in targets], axis=-1)
    feats_test = testset.feature_matrix(0)

    cfg = TrainingConfig(iterations=300, seed=3)  # paper defaults, scaled iterations
    untrained = models.init_params(models.Dims(r=35, v=6, c=2), seed=cfg.seed)
    mae_before = evaluation.evaluate(
        training.predict_multigraph(untrained, feats_test), truth).mae_avg[0]

    t0 = time.perf_counter()
    bundle, trace = training.train(trainset, 0, cfg)
    elapsed = time.perf_counter() - t0
    mae_after = evaluation.evaluate(
        training.predict_multigraph(bundle, feats_test), truth).mae_avg[0]

    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    assert len(trace.records) == 300
    ratio = mae_after / mae_before
    assert ratio <= 0.9, f"trained/untrained MAE ratio {ratio:.3f} > 0.9"
    report(6, f"300 iterations in {elapsed:.0f}s; test MAE {mae_before:.4f} -> "
              f"{mae_after:.4f} (ratio {ratio:.3f} <= 0.9)")


def test_criterion_7_topology_loss_ablation():
    def mae_ec(seed, lambda_top):
        ds = data.simulate_population(s=60, r=16, v=3, clusters=2, seed=seed)
        train_idx, test_idx = data.ratio_split(ds, 0.9, seed=seed)
        trainset, testset = ds.subset(train_idx), ds.subset(test_idx)
        truth = np.stack([testset.tensor[:, t] for t in target_views(3, 0)], axis=-1)
        cfg = TrainingConfig(iterations=150, batch_size=32, seed=seed)
        bundle, _ = training.train(trainset, 0, cfg, LossWeights(lambda_top=lambda_top))
        pred = training.predict_multigraph(bundle, testset.feature_matrix(0))
        return evaluation.evaluate(pred, truth).mae_avg[3]  # MAE(EC) column

    outcomes = []
    for seed in (0, 1, 2):
        with_top = mae_ec(seed, 0.1)
        without = mae_ec(seed, 0.0)
        outcomes.append((seed, with_top, without))
    wins = sum(w < wo for _, w, wo in outcomes)
    assert wins >= 2, f"topological loss improved MAE(EC) in only {wins}/3: {outcomes}"
    detail = ", ".join(f"seed {s}: {w:.4f} vs {wo:.4f}" for s, w, wo in outcomes)
    report(7, f"lambda_top=0.1 beats 0.0 on MAE(EC) in {wins}/3 seeds ({detail})")


def test_criterion_8_determinism(tmp_path):
    dataset = tmp_path / "ds"
    assert cli.main(["simulate", "--subjects", "16", "--rois", "6", "--views", "3",
                     "--clusters", "2", "--seed", "5", "--out", str(dataset)]) == 0
    blobs = {}
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.bin"
        pred = tmp_path / f"pred_{tag}"
        rep = tmp_path / f"rep_{tag}"
        assert cli.main(["train", "--data", str(dataset), "--source-view", "0",
                         "--out", str(model), "--iterations", "2",
                         "--batch-size", "6", "--seed", "11"]) == 0
        assert cli.main(["predict", "--model", str(model), "--data", str(dataset),
                         "--source-view", "0", "--out", str(pred)]) == 0
        assert cli.main(["evaluate", "--pred", str(pred), "--truth", str(dataset),
                         "--out", str(rep)]) == 0
        blobs[tag] = {
            "model": model.read_bytes(),
            "trace": model.with_suffix(".bin.trace.csv").read_bytes(),
            "pred": (pred / "view_1" / "subj0000.csv").read_bytes()
                    + (pred / "view_2" / "subj0015.csv").read_bytes(),
            "report": rep.with_name("rep_" + tag + ".csv").read_bytes(),
        }
    mismatches = [k for k in blobs["a"] if blobs["a"][k] != blobs["b"][k]]
    assert not mismatches, f"nondeterministic artifacts: {mismatches}"
    report(8, "model file, trace, prediction CSVs, and report byte-identical "
              "across two seeded runs")


def test_criterion_9_round_trips(tmp_path):
    rng = np.random.default_rng(900)
    for _ in range(100):
        r = int(rng.integers(3, 12))
        w = oracles.random_connectivity(rng, r)
        assert np.array_equal(data.devectorize(data.vectorize_upper(w), r), w)

    bundle = models.init_params(models.Dims(r=6, v=3, c=2), seed=42)
    path = tmp_path / "model.bin"
    models.save_bundle(bundle, path)
    back = models.load_bundle(path)
    for p1, p2 in zip(bundle.all_params(), back.all_params()):
        assert np.array_equal(p1.data, p2.data)
    path2 = tmp_path / "model2.bin"
    models.save_bundle(back, path2)
    assert path.read_bytes() == path2.read_bytes()

    f = 6 * 5 // 2
    pred = np.stack([np.stack([data.devectorize(rng.uniform(0, 1, f), 6)
                               for _ in range(2)], axis=-1) for _ in range(4)])
    truth = np.stack([np.stack([data.devectorize(rng.uniform(0, 1, f), 6)
                                for _ in range(2)], axis=-1) for _ in range(4)])
    rep = evaluation.evaluate(pred, truth)
    labels, values = oracles.parse_report_csv(evaluation.report_csv(rep))
    assert labels == rep.view_labels + ["avg"]
    assert np.array_equal(values[:-1], rep.mae)
    assert np.array_equal(values[-1], rep.mae_avg)
    report(9, "vectorize/devectorize identity on 100 graphs; model save/load "
              "bit-identity; report CSV parse-back equality")


def test_criterion_10_paired_ttest_reference():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    t, p = evaluation.paired_ttest(a, np.zeros(5))
    assert abs(t - 4.242640687) < 1e-6
    assert abs(p - 0.0132) < 1e-3
    report(10, f"textbook paired t-test: t={t:.4f} (ref 4.2426), p={p:.5f} (ref 0.0132)")
