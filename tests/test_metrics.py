"""Metric kernel tests. Expected values come from hand evaluation, dense
covariance oracles, or numpy.linalg-based subspace oracles; the package
computes the same quantities through streaming sums and its own SVD."""

import numpy as np
import pytest
from conftest import all_taps, is_registered, param_views
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedlens.analysis import relative_change
from fedlens.errors import ShapeError
from fedlens.metrics import (FEATURE_STATS, FeatureMatrix, accuracy, class_stats,
                             distance_records, extract_tap_features, feature_records,
                             linear_probe, pabs_alignment,
                             pairwise_distances)
from fedlens.nn import LayerSpec, Network


def dense_covariance_stats(values, labels):
    """Two-pass oracle: materialize DxD scatter matrices, then trace them."""
    n, _ = values.shape
    classes = np.unique(labels)
    mu = {c: values[labels == c].mean(axis=0) for c in classes}
    mu_g = values.mean(axis=0)
    sw = np.zeros((values.shape[1], values.shape[1]))
    for c in classes:
        dev = values[labels == c] - mu[c]
        sw += np.einsum("ni,nj->ij", dev, dev)
    sw /= n
    db = np.stack([mu[c] - mu_g for c in classes])
    sb = np.einsum("ci,cj->ij", db, db) / len(classes)
    dt = values - mu_g
    st = np.einsum("ni,nj->ij", dt, dt) / n
    tr_w, tr_b, tr_t = np.trace(sw), np.trace(sb), np.trace(st)
    return tr_w, tr_b, tr_t, tr_w / tr_t, tr_b / tr_t


def oracle_pabs(class_means, weights):
    """Brute-force subspace cosines via numpy's full SVD."""
    def basis(mat, top):
        _, s, vt = np.linalg.svd(mat, full_matrices=False)
        cutoff = max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        rank = int((s > cutoff).sum())
        return vt[:min(top, rank)].T

    bz = basis(class_means, class_means.shape[0])
    bw = basis(weights, class_means.shape[0])
    cos = np.linalg.svd(bw.T @ bz, compute_uv=False)
    return np.clip(cos, 0.0, 1.0)


def stats_of(values, labels):
    """class_stats values of a plain (values, labels) pair."""
    return class_stats(FeatureMatrix(values, labels))[1]


class TestClassStats:
    def test_point_classes(self):
        e1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        cs = stats_of(e1, [0, 1])
        assert cs["sigma_w"] == 0.0
        assert cs["sigma_b"] == pytest.approx(1.0, abs=1e-15)

    def test_single_class(self):
        cs = stats_of(np.array([[0.0, 1.0], [0.0, 3.0]]), [2, 2])
        assert cs["tr_b"] == 0.0
        assert cs["sigma_w"] == pytest.approx(1.0, abs=1e-15)

    def test_hand_worked_example(self):
        values = np.array([[0.0, 0], [2, 0], [4, 0], [6, 0]])
        cs = stats_of(values, [0, 0, 1, 1])
        assert cs["tr_w"] == pytest.approx(1.0, abs=1e-12)
        assert cs["tr_b"] == pytest.approx(4.0, abs=1e-12)
        assert cs["tr_t"] == pytest.approx(5.0, abs=1e-12)
        assert cs["sigma_w"] == pytest.approx(0.2, abs=1e-12)
        assert cs["sigma_b"] == pytest.approx(0.8, abs=1e-12)

    def test_streaming_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(10, 200))
            d = int(rng.integers(2, 50))
            c = int(rng.integers(2, 6))
            labels = rng.integers(0, c, size=n)
            labels[:c] = np.arange(c)  # every class present
            values = rng.normal(size=(n, d)) + 2.0 * labels[:, None]
            cs = stats_of(values, labels)
            oracle = dense_covariance_stats(values, labels)
            mine = (cs["tr_w"], cs["tr_b"], cs["tr_t"], cs["sigma_w"], cs["sigma_b"])
            for got, want in zip(mine, oracle):
                assert abs(got - want) / max(abs(want), 1e-12) < 1e-10

    def test_balanced_decomposition_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            c, per = 4, 30
            labels = np.repeat(np.arange(c), per)
            values = rng.normal(size=(c * per, 12)) + 3.0 * labels[:, None]
            cs = stats_of(values, labels)
            assert abs(cs["tr_t"] - (cs["tr_w"] + cs["tr_b"])) <= 1e-8 * cs["tr_t"]
            assert cs["sigma_w"] + cs["sigma_b"] == pytest.approx(1.0, abs=1e-8)
            assert 0.0 <= cs["sigma_w"] <= 1.0 and 0.0 <= cs["sigma_b"] <= 1.0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(60, 8))
        labels = rng.integers(0, 3, size=60)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = stats_of(values, labels)
        b = stats_of(values @ q, labels)
        assert abs(a["sigma_w"] - b["sigma_w"]) < 1e-8
        assert abs(a["sigma_b"] - b["sigma_b"]) < 1e-8

    def test_degenerate_all_identical(self):
        cs = stats_of(np.ones((4, 3)), [0, 0, 1, 1])
        assert cs["tr_t"] == 0.0  # degenerate: no total scatter
        assert cs["sigma_w"] == 0.0 and cs["sigma_b"] == 0.0

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeError):
            stats_of(np.ones((3, 2)), [0, 1])


class TestPabsAlignment:
    def test_coincident_subspaces(self):
        # class means span e1..e3, which is exactly the weights' top-3
        # input subspace
        means = np.array([[1.0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0]])
        weights = np.diag([5.0, 4.0, 3.0, 0.01])[:3]
        cosines = pabs_alignment(means, weights)
        assert cosines.shape == (3,)
        assert cosines.mean() == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_subspaces(self):
        means = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]])
        weights = np.array([[0.0, 0, 1, 0], [0, 0, 0, 1]])
        cosines = pabs_alignment(means, weights)
        assert cosines.mean() == pytest.approx(0.0, abs=1e-8)

    def test_half_overlap(self):
        means = np.array([[1.0, 0, 0], [0, 1, 0]])
        weights = np.array([[1.0, 0, 0], [0, 0, 1]])
        cosines = pabs_alignment(means, weights)
        assert np.allclose(np.sort(cosines), [0.0, 1.0], atol=1e-8)
        assert cosines.mean() == pytest.approx(0.5, abs=1e-8)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(c, 13))
            out = int(rng.integers(c, 11))
            means = rng.normal(size=(c, d))
            weights = rng.normal(size=(out, d))
            cosines = pabs_alignment(means, weights)
            want = oracle_pabs(means, weights)
            assert cosines.shape == want.shape
            assert np.abs(np.sort(cosines) - np.sort(want)).max() < 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(29)
        means = rng.normal(size=(3, 7))
        weights = rng.normal(size=(5, 7))
        base = pabs_alignment(means, weights)
        scaled = pabs_alignment(3.7 * means, 0.02 * weights)
        assert np.abs(base - scaled).max() < 1e-8

    def test_zero_class_means_degenerate(self):
        # a rank-zero side gives no cosines; feature_records records 0.0
        assert pabs_alignment(np.zeros((2, 4)), np.eye(4)).size == 0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            pabs_alignment(np.ones((2, 3)), np.ones((2, 4)))


class TestLinearProbe:
    def test_constant_argmax_matching_labels(self):
        # zero features leave only the bias active: after one epoch the
        # majority class 0 owns the shared argmax, and every test label is 0
        train = FeatureMatrix(np.zeros((8, 3)), [0, 0, 0, 0, 0, 0, 1, 1])
        test = FeatureMatrix(np.zeros((6, 3)), [0] * 6)
        assert linear_probe(train, test, epochs=5, seed=0) == 1.0

    def test_separable_features_reach_one(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([rng.normal(size=(20, 2)) + [4, 4],
                            rng.normal(size=(20, 2)) - [4, 4]])
        labels = np.array([0] * 20 + [1] * 20)
        train = FeatureMatrix(x, labels)
        test = FeatureMatrix(x[::-1].copy(), labels[::-1].copy())
        assert linear_probe(train, test, epochs=100, seed=1) == 1.0

    def test_constant_features_score_chance(self):
        for seed in range(3):
            train = FeatureMatrix(np.full((40, 4), 2.0), [0, 1] * 20)
            test = FeatureMatrix(np.full((40, 4), 2.0), [0, 1] * 20)
            best = linear_probe(train, test, epochs=30, seed=seed)
            assert abs(best - 0.5) <= 0.05

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            linear_probe(FeatureMatrix(np.ones((4, 3)), [0, 1, 0, 1]),
                         FeatureMatrix(np.ones((4, 2)), [0, 1, 0, 1]))


class TestPairwiseDistances:
    def test_identical_inputs(self):
        a = np.random.default_rng(37).normal(size=(5, 4))
        d = pairwise_distances(a, a.copy())
        assert (d["l1_norm"], d["mse"], d["l1"], d["cos"]) == (0.0, 0.0, 0.0, 1.0)

    def test_unit_basis_rows(self):
        d = pairwise_distances(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert d["l1_norm"] == pytest.approx(1.0)
        assert d["mse"] == pytest.approx(1.0)
        assert d["l1"] == pytest.approx(1.0)
        assert d["cos"] == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_rows(self):
        v = np.array([[1.0, 2.0, -3.0]])
        assert pairwise_distances(v, -v)["cos"] == pytest.approx(-1.0)

    def test_zero_norm_conventions(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 0.0]])
        d = pairwise_distances(a, b)
        # row 1: both zero -> cosine 1; row 2: one zero -> cosine 0
        assert d["cos"] == pytest.approx(0.5)
        # elementwise 0/0 counts as zero distance
        assert d["l1_norm"] == pytest.approx(0.25)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_distances(np.ones((2, 3)), np.ones((3, 2)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scratch_buffers_give_the_plain_formulas_bit_for_bit(self, data):
        # zeros, subnormals, shared and negated entries and sums past float64
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0]))
        a = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                              max_side=4), elements=values))
        signs = data.draw(hnp.arrays(np.float64, a.shape, elements=st.sampled_from(
            [1.0, -1.0, np.nan])))
        b = data.draw(hnp.arrays(np.float64, a.shape, elements=values))
        b = np.where(np.isnan(signs), b, signs * a)
        with np.errstate(all="ignore"):
            diff = np.abs(a - b)
            denom = np.abs(a) + np.abs(b)
            want = (np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0).mean(),
                    ((a - b) ** 2).mean(), diff.mean())
            d = pairwise_distances(a, b)
        np.testing.assert_array_equal((d["l1_norm"], d["mse"], d["l1"]), want)


class TestRelativeChange:
    def test_equal_inputs(self):
        assert relative_change(7.5, 7.5) == 0.0

    def test_direct_formula(self):
        assert relative_change(1.0, 3.0) == pytest.approx(50.0)

    def test_double_zero_convention(self):
        assert relative_change(0.0, 0.0) == 0.0

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            pre, post = rng.normal(size=2) * 10
            assert 0.0 <= relative_change(pre, post) <= 100.0

    # |pre| + |post| overflows float64 here
    @pytest.mark.parametrize("pre, post, want", [(1e308, 1.5e308, 20.0),
                                                 (1e308, -1e308, 100.0)])
    def test_values_whose_sum_overflows(self, pre, post, want):
        assert relative_change(pre, post) == pytest.approx(want, rel=1e-15)


class TestAccuracy:
    def test_one_hot_logits(self):
        labels = np.array([0, 2, 1])
        assert accuracy(np.eye(3)[labels], labels) == 1.0

    def test_all_zero_logits_tie_break(self):
        labels = np.array([0, 0, 1, 2])
        assert accuracy(np.zeros((4, 3)), labels) == pytest.approx(0.5)

    def test_confident_wrong(self):
        logits = np.array([[10.0, 0.0], [10.0, 0.0]])
        assert accuracy(logits, [1, 1]) == 0.0


class TestCaptureRecords:
    def fm(self):
        rng = np.random.default_rng(53)
        return FeatureMatrix(rng.normal(size=(12, 4)), [0, 1, 2] * 4, layer=2,
                             phase="post", round=4, client=1)

    def test_keys_come_from_the_feature_matrix(self):
        records = feature_records(self.fm())
        assert {(r.round, r.phase, r.client, r.layer) for r in records} == {(4, "post", 1, 2)}
        # no weight for the tap: variances only, no alignment
        assert [r.metric for r in records] == list(FEATURE_STATS)

    def test_alignment_only_capture(self):
        fm = self.fm()
        w = np.random.default_rng(54).normal(size=(5, 4))
        records = feature_records(fm, w, stats=())
        assert [r.metric for r in records] == ["alignment"]
        assert records[0].value == pabs_alignment(class_stats(fm)[0], w).mean()

    def test_degenerate_captures_record_zeros(self):
        # all rows identical: no scatter at all, so both sigmas are 0
        same = FeatureMatrix(np.ones((4, 3)), [0, 0, 1, 1], layer=1)
        values = {r.metric: r.value for r in feature_records(same)}
        assert values["sigma_w"] == 0.0 and values["sigma_b"] == 0.0
        # zero class means have rank 0: no cosines, and an alignment of exactly 0
        zero = FeatureMatrix(np.zeros((4, 3)), [0, 0, 1, 1], layer=1)
        records = feature_records(zero, np.eye(3))
        assert records[-1].metric == "alignment" and records[-1].value == 0.0

    def test_distance_records_carry_the_prefix(self):
        rng = np.random.default_rng(55)
        a, b = rng.normal(size=(2, 1, 7))
        d = pairwise_distances(a, b)
        records = distance_records(a, b, 3, 0, 1, prefix="param_")
        assert {r.metric: r.value for r in records} == {
            "param_dist_l1_norm": d["l1_norm"], "param_dist_mse": d["mse"],
            "param_dist_l1": d["l1"], "param_dist_cos": d["cos"]}
        assert {(r.round, r.phase, r.client, r.layer) for r in records} == {(3, "delta", 0, 1)}


def tap_records(net, taps):
    """feature_records of every tap, each against its interface weight."""
    return [r for t, fm in taps.items()
            for r in feature_records(fm, net.interface_weight(t + 1))]


class TestTapSweep:
    def make_net_and_data(self):
        net = Network([LayerSpec("linear_relu", 4, 6),
                       LayerSpec("linear_relu", 6, 5),
                       LayerSpec("linear", 5, 3)]).init_random(seed=47)
        rng = np.random.default_rng(48)
        x = rng.normal(size=(40, 4))
        labels = rng.integers(0, 3, size=40)
        labels[:3] = [0, 1, 2]
        return net, x, labels

    def test_batching_invariance(self):
        net, x, labels = self.make_net_and_data()
        full = all_taps(net, x, labels, batch_size=len(x))
        batched = all_taps(net, x, labels, batch_size=16)
        rec_full = tap_records(net, full)
        rec_batched = tap_records(net, batched)
        assert len(rec_full) == len(rec_batched)
        for a, b in zip(rec_full, rec_batched):
            assert (a.layer, a.metric) == (b.layer, b.metric)
            assert abs(a.value - b.value) < 1e-10

    def test_identity_deep_linear_preserves_sigma(self):
        dim = 4
        net = Network([LayerSpec("linear", dim, dim) for _ in range(3)])
        for tensors in param_views(net):
            tensors[0][...] = np.eye(dim)
        _, x, labels = self.make_net_and_data()
        taps = all_taps(net, x, labels)
        base = class_stats(taps[0])[1]["sigma_w"]
        for t, fm in taps.items():
            assert class_stats(fm)[1]["sigma_w"] == pytest.approx(base, abs=1e-12)

    def test_record_count_and_registered_names(self):
        net, x, labels = self.make_net_and_data()
        taps = all_taps(net, x, labels)
        records = tap_records(net, taps)
        assert len(records) == net.num_layers * 6  # 6 metrics per tap
        assert all(is_registered(r.metric) for r in records)

    def test_tap_out_of_range(self):
        net, x, labels = self.make_net_and_data()
        with pytest.raises(ShapeError):
            extract_tap_features(net, x, labels, 5)
