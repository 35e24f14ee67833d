import numpy as np
import pytest

from connectogen import evaluation
from connectogen.data import devectorize
from connectogen.errors import DimensionError, PreconditionError

import oracles


def star3():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[0, 2] = w[2, 0] = 1.0
    return w


class TestMaeGraphs:
    def test_identity_zero(self):
        graphs = [oracles.random_connectivity(np.random.default_rng(0), 5)] * 3
        assert evaluation.mae_graphs(graphs, graphs) == 0.0

    def test_single_edge_hand_case(self):
        real = [np.array([[0.0, 1.0], [1.0, 0.0]])]
        pred = [np.zeros((2, 2))]
        assert evaluation.mae_graphs(real, pred) == 1.0

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(1)
        a = [oracles.random_connectivity(rng, 4) for _ in range(3)]
        b = [oracles.random_connectivity(rng, 4) for _ in range(3)]
        assert evaluation.mae_graphs(a, b) == evaluation.mae_graphs(b, a)

    def test_count_mismatch(self):
        with pytest.raises(DimensionError):
            evaluation.mae_graphs([np.zeros((2, 2))], [])


class TestMaeTopology:
    def test_identity_zero_for_all_metrics(self):
        graphs = [oracles.random_connectivity(np.random.default_rng(2), 5)] * 2
        for metric in evaluation.METRIC_ORDER:
            assert evaluation.mae_topology(graphs, graphs, metric) == 0.0

    def test_triangle_vs_star_clst(self):
        k3 = np.ones((3, 3)) - np.eye(3)
        assert evaluation.mae_topology([k3], [star3()], "clst") == 1.0

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        a = [oracles.random_connectivity(rng, 5)]
        b = [oracles.random_connectivity(rng, 5)]
        for metric in evaluation.METRIC_ORDER:
            assert evaluation.mae_topology(a, b, metric) >= 0.0


class TestKLDivergence:
    def test_identical_lists_zero(self):
        scores = np.random.default_rng(4).uniform(size=200)
        assert abs(evaluation.kl_divergence(scores, scores)) < 1e-12

    def test_disjoint_supports_large_but_finite(self):
        kl = evaluation.kl_divergence(np.zeros(50), np.ones(50))
        assert np.isfinite(kl)
        assert kl > 5.0

    def test_matches_hand_histogram(self):
        real = [0.1, 0.2, 0.9, 0.9]
        pred = [0.15, 0.5, 0.8, 0.95]
        spec = evaluation.HistogramSpec(bins=4, epsilon=1e-6)
        expected = oracles.kl_by_hand(real, pred, bins=4, epsilon=1e-6)
        assert abs(evaluation.kl_divergence(real, pred, spec) - expected) < 1e-12

    def test_nonnegative_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            real = rng.normal(size=int(rng.integers(5, 60)))
            pred = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(5, 60)))
            assert evaluation.kl_divergence(real, pred) >= 0.0

    def test_constant_inputs(self):
        assert abs(evaluation.kl_divergence([1.0, 1.0], [1.0, 1.0])) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            evaluation.kl_divergence([], [1.0])


class TestPairedTTest:
    def test_equal_samples_p_one(self):
        a = np.arange(5.0)
        t, p = evaluation.paired_ttest(a, a)
        assert t == 0.0 and p == 1.0

    def test_textbook_case(self):
        # d = {1,2,3,4,5}: t = 3/(sqrt(2.5)/sqrt(5)) = 4.2426..., p ~ 0.0132
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.zeros(5)
        t, p = evaluation.paired_ttest(a, b)
        assert abs(t - 4.242640687) < 1e-8
        assert abs(p - 0.0132) < 1e-3

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=8), rng.normal(size=8)
        t1, p1 = evaluation.paired_ttest(a, b)
        t2, p2 = evaluation.paired_ttest(b, a)
        assert abs(t1 + t2) < 1e-12
        assert abs(p1 - p2) < 1e-12

    def test_zero_variance_nonzero_mean(self):
        t, p = evaluation.paired_ttest([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert np.isinf(t) and p == 0.0

    def test_length_guards(self):
        with pytest.raises(PreconditionError):
            evaluation.paired_ttest([1.0], [2.0])
        with pytest.raises(DimensionError):
            evaluation.paired_ttest([1.0, 2.0], [1.0])

    def test_p_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            _, p = evaluation.paired_ttest(rng.normal(size=n), rng.normal(size=n))
            assert 0.0 <= p <= 1.0


def _random_multigraph_tensor(rng, m=4, r=6, k=3):
    f = r * (r - 1) // 2
    return np.stack(
        [np.stack([devectorize(rng.uniform(0.1, 1.0, size=f), r) for _ in range(k)],
                  axis=-1) for _ in range(m)])


class TestEvaluate:
    def test_identity_gives_zero_report(self):
        rng = np.random.default_rng(8)
        tensor = _random_multigraph_tensor(rng)
        report = evaluation.evaluate(tensor, tensor)
        assert np.all(report.mae == 0.0)
        assert np.all(np.abs(report.kl) < 1e-12)

    def test_shapes_and_avg_row(self):
        rng = np.random.default_rng(9)
        pred = _random_multigraph_tensor(rng)
        truth = _random_multigraph_tensor(rng)
        report = evaluation.evaluate(pred, truth)
        assert report.mae.shape == (3, 7)
        assert report.kl.shape == (3, 6)
        assert np.allclose(report.mae_avg, report.mae.mean(axis=0), atol=1e-15)
        assert np.allclose(report.kl_avg, report.kl.mean(axis=0), atol=1e-15)

    def test_subject_reordering_invariance(self):
        rng = np.random.default_rng(10)
        pred = _random_multigraph_tensor(rng)
        truth = _random_multigraph_tensor(rng)
        perm = rng.permutation(pred.shape[0])
        r1 = evaluation.evaluate(pred, truth)
        r2 = evaluation.evaluate(pred[perm], truth[perm])
        assert np.allclose(r1.mae, r2.mae, atol=1e-12)

    def test_all_cells_finite(self):
        rng = np.random.default_rng(11)
        report = evaluation.evaluate(_random_multigraph_tensor(rng),
                                     _random_multigraph_tensor(rng))
        assert np.all(np.isfinite(report.mae))
        assert np.all(np.isfinite(report.kl))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(DimensionError):
            evaluation.evaluate(_random_multigraph_tensor(rng, m=3),
                                _random_multigraph_tensor(rng, m=4))


class TestReportIO:
    def _report(self):
        rng = np.random.default_rng(13)
        return evaluation.evaluate(_random_multigraph_tensor(rng),
                                   _random_multigraph_tensor(rng))

    def test_csv_round_trip(self):
        report = self._report()
        text = evaluation.report_csv(report)
        labels, values = evaluation.parse_report_csv(text)
        assert labels == report.view_labels + ["avg"]
        assert np.array_equal(values[:-1], report.mae)
        assert np.array_equal(values[-1], report.mae_avg)

    def test_csv_header_schema(self):
        header = evaluation.report_csv(self._report()).splitlines()[0]
        assert header == "view,mae,mae_cc,mae_bc,mae_ec,mae_pc,mae_eff,mae_clst"

    def test_markdown_has_tables(self):
        report = self._report()
        md = evaluation.report_markdown(report)
        assert "## Mean absolute error" in md
        assert "## KL divergence" in md
        assert md.count("| avg |") == 2

    def test_markdown_includes_pvalues_when_present(self):
        report = self._report()
        report.p_values = np.full_like(report.mae, 0.5)
        md = evaluation.report_markdown(report)
        assert "Paired t-test" in md

    def test_deterministic_bytes(self):
        report = self._report()
        assert evaluation.report_csv(report) == evaluation.report_csv(report)
        assert evaluation.kl_csv(report) == evaluation.kl_csv(report)


class TestSubjectMaes:
    def test_graph_maes_shape_and_meaning(self):
        rng = np.random.default_rng(14)
        pred = _random_multigraph_tensor(rng, m=3, r=5, k=2)
        truth = _random_multigraph_tensor(rng, m=3, r=5, k=2)
        per_subject = evaluation.subject_graph_maes(pred, truth)
        assert per_subject.shape == (2, 3)
        report = evaluation.evaluate(pred, truth)
        assert np.allclose(per_subject.mean(axis=1), report.mae[:, 0], atol=1e-12)

    def test_metric_maes_match_report(self):
        rng = np.random.default_rng(15)
        pred = _random_multigraph_tensor(rng, m=3, r=5, k=2)
        truth = _random_multigraph_tensor(rng, m=3, r=5, k=2)
        per_subject = evaluation.subject_metric_maes(pred, truth, "cc")
        report = evaluation.evaluate(pred, truth)
        assert np.allclose(per_subject.mean(axis=1), report.mae[:, 1], atol=1e-12)

    def test_baseline_pvalues_pair_the_subject_maes(self):
        rng = np.random.default_rng(16)
        pred, truth, base = (_random_multigraph_tensor(rng, m=4, r=5, k=2) for _ in range(3))
        assert evaluation.evaluate(pred, truth).p_values is None
        report = evaluation.evaluate(pred, truth, baseline=base)
        pairs = [(evaluation.subject_graph_maes(pred, truth),
                  evaluation.subject_graph_maes(base, truth))]
        pairs += [(evaluation.subject_metric_maes(pred, truth, metric),
                   evaluation.subject_metric_maes(base, truth, metric))
                  for metric in evaluation.METRIC_ORDER]
        for col, (ours, theirs) in enumerate(pairs):
            for i in range(2):
                assert report.p_values[i, col] == evaluation.paired_ttest(ours[i], theirs[i])[1]
        with pytest.raises(DimensionError):
            evaluation.evaluate(pred, truth, baseline=base[:3])
