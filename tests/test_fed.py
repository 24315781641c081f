"""Federation protocol tests: masks, weighted aggregation, round scheduling,
pretraining, classifier fine-tuning, and bit-exact reproducibility."""

import numpy as np
import pytest

from conftest import small_config

from fedlens.data import generate_federation_data, make_domain_specs
from fedlens.errors import ConfigError, NumericError, ShapeError
from fedlens.fed import (LOCAL_EPOCH_ABLATION, aggregate, build_arch, client_round_seed,
                         finetune_classifier, pretrain, resolve_mask, run_federation,
                         splice)
from fedlens.metrics import accuracy, is_registered
from fedlens.nn import (LayerSpec, LayoutEntry, Network, ParamVector,
                        mlp_specs, one_hot, sgd_epochs)
from fedlens.seeds import derive_seed

ARCH = mlp_specs(6, [8, 8], 3)


def small_federation(num_clients=3, seed=9, train=60, test=30):
    specs = make_domain_specs(num_clients, 3, 6, seed=seed, anchor_scale=2.0)
    return generate_federation_data(specs, train, test, seed=seed)


def scalar_vector(value):
    layout = (LayoutEntry(layer=1, shape=(1,), offset=0),)
    return ParamVector(np.array([float(value)]), layout)


def random_vectors(rng, count, size=17):
    layout = (LayoutEntry(layer=1, shape=(size,), offset=0),)
    return [ParamVector(rng.normal(size=size), layout) for _ in range(count)]


class TestMasks:
    layout = Network(ARCH).layout

    def test_none_is_all_false(self):
        mask = resolve_mask("none", self.layout, 3)
        assert not mask.flags.any()

    def test_successive_full_depth_keeps_everything_local(self):
        mask = resolve_mask("successive:3", self.layout, 3)
        assert mask.flags.all()

    def test_successive_two_of_five(self):
        layout = Network(mlp_specs(4, [5, 5, 5, 5], 2)).layout
        mask = resolve_mask("successive:2", layout, 5)
        marked = {e.layer for e in layout if mask.flags[e.offset]}
        assert marked == {1, 2}
        for e in layout:
            span = mask.flags[e.offset:e.offset + e.size]
            assert span.all() if e.layer <= 2 else not span.any()

    def test_classifier_marks_final_layer(self):
        mask = resolve_mask("classifier", self.layout, 3)
        marked = {e.layer for e in self.layout if mask.flags[e.offset]}
        assert marked == {3}

    def test_skip_exact_layers(self):
        mask = resolve_mask("skip:1,3", self.layout, 3)
        marked = {e.layer for e in self.layout if mask.flags[e.offset]}
        assert marked == {1, 3}

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            resolve_mask("successive:4", self.layout, 3)
        with pytest.raises(ConfigError):
            resolve_mask("skip:0", self.layout, 3)
        with pytest.raises(ConfigError):
            resolve_mask("sideways", self.layout, 3)


class TestAggregate:
    def test_identical_models_unchanged(self):
        rng = np.random.default_rng(51)
        pv = random_vectors(rng, 1)[0]
        out = aggregate([pv.copy(), pv.copy()], [100, 7])
        assert np.array_equal(out.values, pv.values)

    def test_scalar_weighted_mean(self):
        out = aggregate([scalar_vector(0.0), scalar_vector(4.0)], [100, 300])
        assert out.values[0] == pytest.approx(3.0, abs=1e-15)

    def test_three_clients_match_naive_oracle(self):
        rng = np.random.default_rng(53)
        models = random_vectors(rng, 3)
        counts = [120, 45, 300]
        naive = sum(c * m.values for c, m in zip(counts, models)) / sum(counts)
        out = aggregate(models, counts)
        assert np.abs(out.values - naive).max() < 1e-12

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            models = random_vectors(rng, k)
            counts = rng.integers(1, 500, size=k).tolist()
            base = aggregate(models, counts).values.tobytes()
            perm = rng.permutation(k)
            shuffled = aggregate([models[i] for i in perm],
                                 [counts[i] for i in perm]).values.tobytes()
            assert shuffled == base

    def test_convexity_envelope(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            models = random_vectors(rng, int(rng.integers(2, 5)))
            counts = rng.integers(1, 50, size=len(models)).tolist()
            out = aggregate(models, counts).values
            stack = np.stack([m.values for m in models])
            assert np.all(out >= stack.min(axis=0))
            assert np.all(out <= stack.max(axis=0))

    def test_equal_counts_equal_plain_mean(self):
        rng = np.random.default_rng(59)
        models = random_vectors(rng, 4)
        out = aggregate(models, [25, 25, 25, 25])
        mean = np.mean([m.values for m in models], axis=0)
        assert np.abs(out.values - mean).max() < 1e-12

    def test_layout_mismatch_rejected(self):
        a = scalar_vector(1.0)
        b = ParamVector(np.zeros(2), (LayoutEntry(1, (2,), 0),))
        with pytest.raises(ShapeError):
            aggregate([a, b], [1, 1])

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ShapeError):
            aggregate([scalar_vector(1.0), scalar_vector(2.0)], [5, 0])

    def test_splice_restores_masked_coordinates(self):
        rng = np.random.default_rng(61)
        layout = Network(ARCH).layout
        shared = ParamVector(rng.normal(size=sum(e.size for e in layout)), layout)
        residue = ParamVector(rng.normal(size=shared.size), layout)
        mask = resolve_mask("successive:1", layout, 3)
        out = splice(shared, residue, mask)
        assert np.array_equal(out.values[mask.flags], residue.values[mask.flags])
        assert np.array_equal(out.values[~mask.flags], shared.values[~mask.flags])


class TestRunFederation:
    def test_single_client_equals_centralized(self):
        datasets = small_federation(num_clients=1)
        cfg = small_config(1, local_epochs=2, rounds=3, batch_size=16,
                           eval_cadence=1, seed=13)
        result = run_federation(cfg, datasets)
        central = Network(ARCH).init_random(derive_seed(13, "init"))
        for r in range(1, 4):
            sgd_epochs(central, datasets[0].train_x, datasets[0].train_y,
                       epochs=2, lr=cfg.fed.lr, momentum=cfg.fed.momentum,
                       batch_size=16, seed=client_round_seed(13, 0, r))
        assert (result.final.post[0].values.tobytes()
                == central.flatten().values.tobytes())

    def test_identical_inputs_make_aggregation_a_no_op(self):
        # the per-client shuffle streams are deliberately distinct inside a
        # real round, so symmetry is asserted on the components: identical
        # data + seed + init train to identical vectors, and averaging
        # identical vectors is exact
        datasets = small_federation(num_clients=1)
        trained = []
        for _ in range(3):
            net = Network(ARCH).init_random(seed=21)
            sgd_epochs(net, datasets[0].train_x, datasets[0].train_y,
                       epochs=2, batch_size=16, seed=22)
            trained.append(net.flatten())
        agg = aggregate(trained, [60, 60, 60])
        assert agg.values.tobytes() == trained[0].values.tobytes()

    def test_zero_local_epochs_pipeline_no_op(self):
        datasets = small_federation(num_clients=3)
        cfg = small_config(3, local_epochs=0, rounds=2, eval_cadence=1, seed=23)
        result = run_federation(cfg, datasets)
        init = Network(ARCH).init_random(derive_seed(23, "init")).flatten()
        for pv in result.final.post:
            assert pv.values.tobytes() == init.values.tobytes()

    def test_capture_schedule(self):
        datasets = small_federation(num_clients=3)
        cfg = small_config(3, metrics={"distances": False}, local_epochs=1, rounds=2,
                           batch_size=32, eval_cadence=1, seed=25)
        result = run_federation(cfg, datasets)
        assert result.eval_rounds == [1, 2]
        for m in range(3):
            for phase in ("pre", "post"):
                acc = [r for r in result.records
                       if r.metric == "train_acc" and r.client == m
                       and r.phase == phase]
                assert len(acc) == 2  # one capture per round per phase

    def test_successive_zero_equals_no_personalization(self):
        datasets = small_federation(num_clients=3)
        runs = []
        for mode in ("none", "successive:0"):
            cfg = small_config(3, local_epochs=1, rounds=2, batch_size=32,
                               eval_cadence=1, personalization=mode, seed=29)
            runs.append(run_federation(cfg, datasets))
        assert runs[0].records == runs[1].records
        assert (runs[0].final.shared.values.tobytes()
                == runs[1].final.shared.values.tobytes())

    def test_personalized_layers_never_leave_the_client(self):
        datasets = small_federation(num_clients=3)
        cfg = small_config(3, local_epochs=1, rounds=3, batch_size=32, eval_cadence=3,
                           personalization="successive:1", seed=31)
        result = run_federation(cfg, datasets)
        mask = result.mask
        assert mask.layers == frozenset({1})
        shared_part = result.final.post[0].values[~mask.flags]
        for m in range(3):
            post = result.final.post[m].values
            pre = result.final.pre[m].values
            # masked span: the client's own trained values, bit-exact
            assert np.array_equal(post[mask.flags], pre[mask.flags])
            # unmasked span: one shared average for everyone
            assert np.array_equal(post[~mask.flags], shared_part)

    def test_metric_names_all_registered(self):
        datasets = small_federation(num_clients=2)
        cfg = small_config(2, scenario="finetune",
                           metrics={"probe_rounds": (2,), "probe_epochs": 5,
                                    "finetune_epochs": 1},
                           local_epochs=1, rounds=2, batch_size=32, eval_cadence=2,
                           seed=33)
        result = run_federation(cfg, datasets)
        assert all(is_registered(r.metric) for r in result.records)
        phases = {r.phase for r in result.records}
        assert phases == {"pre", "post", "tuned", "delta"}

    def test_numeric_error_names_round_and_client(self):
        datasets = small_federation(num_clients=3)
        datasets[1].train_x[5, 0] = np.inf
        cfg = small_config(3, local_epochs=1, rounds=2, batch_size=16, seed=29)
        with pytest.raises(NumericError, match=r"^round 1, client 1, local training: "
                                               r"non-finite activation leaving layer 1$") as info:
            run_federation(cfg, datasets)
        assert isinstance(info.value.__cause__, NumericError)
        assert str(info.value.__cause__) == "non-finite activation leaving layer 1"

    def test_numeric_error_names_pretraining(self):
        cfg = small_config(3, local_epochs=1, rounds=2, batch_size=16, seed=29,
                           lr=1e200, pretrain_epochs=5)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=r"^pretraining: non-finite activation "
                                    r"leaving layer 2$") as info:
            run_federation(cfg, small_federation(num_clients=3))
        assert isinstance(info.value.__cause__, NumericError)
        assert str(info.value.__cause__) == "non-finite activation leaving layer 2"

    def test_arch_comes_from_the_data_and_model_sections(self):
        assert build_arch(small_config(3)) == ARCH


class TestPretrain:
    def test_zero_epochs_returns_init(self):
        net = Network(ARCH).init_random(seed=35)
        before = net.flatten().values.copy()
        out = pretrain(net, np.zeros((4, 6)), one_hot([0, 1, 2, 0], 3), epochs=0)
        assert np.array_equal(out.values, before)

    def test_pooled_training_beats_random_init(self):
        datasets = small_federation(num_clients=3, seed=37, train=90, test=60)
        x = np.concatenate([ds.train_x for ds in datasets])
        y = np.concatenate([ds.train_y for ds in datasets])
        tx = np.concatenate([ds.test_x for ds in datasets])
        tl = np.concatenate([ds.test_labels for ds in datasets])
        net = Network(ARCH).init_random(seed=38)
        base = accuracy(net.forward(tx)[0], tl)
        pretrain(net, x, y, epochs=20, lr=0.05, batch_size=32, seed=39)
        assert accuracy(net.forward(tx)[0], tl) > base

    def test_deterministic(self):
        datasets = small_federation(num_clients=2, seed=41)
        outs = []
        for _ in range(2):
            net = Network(ARCH).init_random(seed=42)
            outs.append(pretrain(net, datasets[0].train_x, datasets[0].train_y,
                                 epochs=3, batch_size=16, seed=43))
        assert np.array_equal(outs[0].values, outs[1].values)


class TestFinetuneClassifier:
    def test_zero_epochs_unchanged(self):
        pv = Network(ARCH).init_random(seed=45).flatten()
        out = finetune_classifier(pv, ARCH, np.zeros((4, 6)),
                                  one_hot([0, 1, 2, 0], 3), epochs=0)
        assert np.array_equal(out.values, pv.values)

    def test_only_classifier_changes(self):
        datasets = small_federation(num_clients=1, seed=47)
        pv = Network(ARCH).init_random(seed=48).flatten()
        out = finetune_classifier(pv, ARCH, datasets[0].train_x,
                                  datasets[0].train_y, batch_size=16, seed=49)
        head = pv.layer_slice(3)
        body = slice(0, head.start)
        assert np.array_equal(out.values[body], pv.values[body])
        assert not np.array_equal(out.values[head], pv.values[head])

    def test_separable_penultimate_features_reach_full_accuracy(self):
        # identity extractor, zero classifier: fine-tuning only the head on
        # well-separated clusters must reach perfect local train accuracy
        arch = [LayerSpec("linear", 2, 2), LayerSpec("linear", 2, 2)]
        net = Network(arch)
        net.params[0][0][...] = np.eye(2)
        rng = np.random.default_rng(50)
        x = np.concatenate([rng.normal(size=(10, 2)) + [6, 6],
                            rng.normal(size=(10, 2)) - [6, 6]])
        y = one_hot([0] * 10 + [1] * 10, 2)
        out = finetune_classifier(net.flatten(), arch, x, y,
                                  batch_size=4, seed=51)
        tuned = Network.from_vector(arch, out)
        assert accuracy(tuned.forward(x)[0], np.argmax(y, axis=1)) == 1.0
        assert np.array_equal(tuned.params[0][0], np.eye(2))


def test_local_epoch_ablation_budget():
    for epochs, rounds in LOCAL_EPOCH_ABLATION:
        assert epochs * rounds == 100


def test_client_round_seeds_distinct_and_stable():
    seeds = {client_round_seed(1, m, r) for m in range(4) for r in range(1, 31)}
    assert len(seeds) == 4 * 30
    assert client_round_seed(1, 2, 7) == client_round_seed(1, 2, 7)
