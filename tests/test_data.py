"""Dataset generation and IDX ingestion tests."""

import struct

import numpy as np
import pytest

from fedlens.config import ExperimentConfig
from fedlens.data import (ClientDataset, balanced_eval_subset, generate_federation_data,
                          load_idx, make_domain_specs)
from fedlens.errors import ConfigError, FormatError
from fedlens.nn import Network, mlp_specs, sgd_epochs
from fedlens.metrics import accuracy
from fedlens.runner import build_datasets


def write_idx_pair(tmp_path, pixels, labels, rows, cols, prefix=""):
    """Hand-packed big-endian IDX files; returns (images_path, labels_path)."""
    n = len(labels)
    img = tmp_path / f"{prefix}images.idx"
    lab = tmp_path / f"{prefix}labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                    + bytes(pixels))
    lab.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return img, lab


class TestGenerator:
    def test_identical_transforms_give_iid_control(self):
        specs = make_domain_specs(3, 4, 6, seed=1, rotation="identity",
                                  scale_range=(1.0, 1.0), offset_scale=0.0)
        for sp in specs:
            assert np.array_equal(sp.rotation, np.eye(6))
            assert np.array_equal(sp.scaling, np.ones(6))
            assert np.array_equal(sp.offset, np.zeros(6))
            assert np.array_equal(sp.class_means, specs[0].class_means)
        # same distribution, still independent draws per client
        ds = generate_federation_data(specs, 40, 40, seed=1)
        assert not np.array_equal(ds[0].train_x, ds[1].train_x)

    def test_random_specs_share_anchors_and_rotate_orthogonally(self):
        specs = make_domain_specs(3, 4, 6, seed=11, scale_range=(0.5, 2.0),
                                  offset_scale=1.0)
        for sp in specs:
            assert sp.class_means is specs[0].class_means
            assert sp.class_means.shape == (4, 6)
            assert sp.rotation.shape == (6, 6)
            assert np.abs(sp.rotation.T @ sp.rotation - np.eye(6)).max() < 1e-12
            assert sp.scaling.shape == sp.offset.shape == (6,)

    def test_vanishing_spread_pins_samples_to_anchors(self):
        specs = make_domain_specs(2, 3, 5, seed=2, rotation="identity",
                                  scale_range=(1.0, 1.0), offset_scale=0.0,
                                  within_class_scale=1e-12)
        ds = generate_federation_data(specs, 30, 30, seed=2)[0]
        anchors = specs[0].class_means
        for c in range(3):
            rows = ds.train_x[ds.train_labels == c]
            assert np.abs(rows - anchors[c]).max() < 1e-9

    def test_class_mean_concentration(self):
        # per-coordinate sample mean of class c within 4 sigma/sqrt(N) of the
        # transformed anchor; after an orthogonal rotation the coordinate
        # noise std is within_class_scale * scaling_j
        specs = make_domain_specs(1, 5, 20, seed=3, anchor_scale=3.0,
                                  scale_range=(0.5, 2.0), offset_scale=1.0)
        sp = specs[0]
        n_per_class = 500
        ds = generate_federation_data(specs, 5 * n_per_class, 5, seed=3)[0]
        expected = sp.transform(sp.class_means)
        tol = 4.0 * sp.within_class_scale * sp.scaling / np.sqrt(n_per_class)
        for c in range(5):
            mean_c = ds.train_x[ds.train_labels == c].mean(axis=0)
            assert np.all(np.abs(mean_c - expected[c]) < tol)

    def test_same_seed_bit_identical(self):
        specs = make_domain_specs(2, 3, 4, seed=4)
        a = generate_federation_data(specs, 30, 30, seed=5)
        b = generate_federation_data(specs, 30, 30, seed=5)
        for da, db in zip(a, b):
            assert np.array_equal(da.train_x, db.train_x)
            assert np.array_equal(da.train_labels, db.train_labels)
            assert np.array_equal(da.test_x, db.test_x)

    def test_balanced_split_has_uniform_classes(self):
        specs = make_domain_specs(1, 5, 6, seed=6)
        ds = generate_federation_data(specs, 50, 52, seed=6)[0]
        assert np.array_equal(np.bincount(ds.train_labels), [10] * 5)
        # the first count % classes classes get one row more
        assert np.array_equal(np.bincount(ds.test_labels), [11, 11, 10, 10, 10])

    def test_signed_zero_scale_range_draws_zero_scaling(self):
        # scale_min = 0.0 and scale_max = -0.0 pass the config's rule
        specs = make_domain_specs(2, 2, 3, seed=5, scale_range=(0.0, -0.0))
        assert all(not sp.scaling.any() for sp in specs)

    def test_rotation_heterogeneity_hurts_transfer(self):
        # sanity gate, not a hard invariant: a model trained on client 0
        # should transfer worse to client 1 than to its own test split,
        # in a majority of seeds
        wins = 0
        seeds = range(5)
        for seed in seeds:
            specs = make_domain_specs(2, 3, 10, seed=seed, anchor_scale=2.0)
            ds = generate_federation_data(specs, 120, 120, seed=seed)
            net = Network(mlp_specs(10, [16], 3)).init_random(seed=seed)
            sgd_epochs(net, ds[0].train_x, ds[0].train_labels, epochs=20,
                       lr=0.05, batch_size=32, seed=seed)
            own = accuracy(net.forward(ds[0].test_x), ds[0].test_labels)
            foreign = accuracy(net.forward(ds[1].test_x), ds[1].test_labels)
            wins += own > foreign
        assert wins > len(seeds) // 2


class TestIdx:
    def test_two_image_fixture_exact(self, tmp_path):
        pixels = [0, 128, 255, 1, 2, 3, 4, 5]
        img, lab = write_idx_pair(tmp_path, pixels, [0, 1], rows=2, cols=2)
        x, labels = load_idx(img, lab)
        assert np.array_equal(x, np.array(pixels).reshape(2, 4) / 255.0)
        assert np.array_equal(labels, [0, 1])

    def test_bad_magic_reports_offset(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 0], [0, 1], rows=1, cols=1)
        broken = tmp_path / "broken.idx"
        broken.write_bytes(b"\x00\x00\x09\x99" + img.read_bytes()[4:])
        with pytest.raises(FormatError, match="offset 0"):
            load_idx(broken, lab)

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 0], [0, 1], rows=1, cols=1)
        img.write_bytes(img.read_bytes()[:-1])
        with pytest.raises(FormatError, match="offset"):
            load_idx(img, lab)

    @pytest.mark.parametrize("images, labels, message", [
        (struct.pack(">IIII", 0x803, 0, 1, 1), struct.pack(">II", 0x801, 0),
         "empty dataset"),
        (struct.pack(">II", 0x803, 2), struct.pack(">II", 0x801, 2) + bytes(2),
         "truncated dimension header at offset 8"),
        (struct.pack(">IIII", 0x803, 2, 1, 1) + bytes(2),
         struct.pack(">II", 0x801, 1) + bytes(1), "2 images but 1 labels"),
    ], ids=["zero-images", "8-byte-images", "2-images-1-label"])
    def test_malformed_pair_names_the_images_file(self, tmp_path, images, labels, message):
        img, lab = tmp_path / "images.idx", tmp_path / "labels.idx"
        img.write_bytes(images)
        lab.write_bytes(labels)
        with pytest.raises(FormatError) as excinfo:
            load_idx(img, lab)
        assert str(excinfo.value) == f"{img}: {message}"

    def test_build_datasets_pairs_train_and_test_files(self, tmp_path):
        for m in range(2):
            write_idx_pair(tmp_path, [m, 2, 3, 4], [0, 1, 1, 0], rows=1, cols=1,
                           prefix=f"client{m}_train_")
            write_idx_pair(tmp_path, [m, 9], [2, 0], rows=1, cols=1,
                           prefix=f"client{m}_test_")
        cfg = ExperimentConfig()
        cfg.data.kind, cfg.data.idx_dir, cfg.data.clients = "idx", str(tmp_path), 2
        datasets = build_datasets(cfg)
        assert [ds.client_id for ds in datasets] == [0, 1]
        ds = datasets[1]
        assert ds.n_train == 4 and len(ds.test_x) == 2
        assert np.array_equal(ds.train_x[:, 0], np.array([1, 2, 3, 4]) / 255.0)
        assert np.array_equal(ds.test_labels, [2, 0])


class TestBalancedSubset:
    def make(self, per_class=8, classes=3):
        specs = make_domain_specs(1, classes, 4, seed=7)
        return generate_federation_data(specs, per_class * classes,
                                        per_class * classes, seed=7)[0]

    def test_full_count_is_permutation(self):
        ds = self.make()
        x, _ = balanced_eval_subset(ds, 8, seed=1)
        assert sorted(map(tuple, x)) == sorted(map(tuple, ds.train_x))

    def test_histogram_uniform(self):
        _, labels = balanced_eval_subset(self.make(), 5, seed=2)
        assert np.array_equal(np.bincount(labels), [5, 5, 5])

    def test_two_seeds_differ_same_histogram(self):
        ds = self.make()
        a = balanced_eval_subset(ds, 4, seed=3)
        b = balanced_eval_subset(ds, 4, seed=4)
        assert not np.array_equal(a[0], b[0])
        assert np.array_equal(np.bincount(a[1]), np.bincount(b[1]))

    def test_absent_class_is_left_out(self):
        ds = self.make()
        keep = ds.train_labels != 1
        lacking = ClientDataset(0, ds.train_x[keep], ds.train_labels[keep],
                                ds.test_x, ds.test_labels)
        _, labels = balanced_eval_subset(lacking, 5, seed=2)
        assert np.array_equal(np.bincount(labels), [5, 0, 5])

    def test_insufficient_samples_lists_classes(self):
        with pytest.raises(ConfigError, match="^metrics.eval_per_class: client 0 has 3 "
                                              "train rows of class 0, fewer than 4$"):
            balanced_eval_subset(self.make(per_class=3), 4, seed=5)


def test_labels_are_class_ids():
    specs = make_domain_specs(2, 3, 4, seed=8)
    for ds in generate_federation_data(specs, 30, 30, seed=8):
        for labels in (ds.train_labels, ds.test_labels):
            assert labels.shape == (30,) and labels.dtype.kind == "i"
            assert set(labels.tolist()) == {0, 1, 2}
