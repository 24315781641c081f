"""Federation protocol tests: personalized layers, weighted aggregation, round
scheduling, pretraining, classifier fine-tuning, and bit-exact reproducibility."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_registered, last_round_vectors, param_views, small_config

from fedlens.config import LOCAL_EPOCH_ABLATION, personalized_layers, validate_config

from fedlens.data import generate_federation_data, make_domain_specs
from fedlens.errors import ConfigError, NumericError, ShapeError
from fedlens.fed import (aggregate, build_arch, client_round_seed, finetune_classifier,
                         pretrain, run_federation, splice)
from fedlens.metrics import accuracy
from fedlens.nn import LayerSpec, Network, mlp_specs, sgd_epochs
from fedlens.seeds import derive_seed

ARCH = mlp_specs(6, [8, 8], 3)
NET = Network(ARCH)


def small_federation(num_clients=3, seed=9, train=60, test=30):
    specs = make_domain_specs(num_clients, 3, 6, seed=seed, anchor_scale=2.0)
    return generate_federation_data(specs, train, test, seed=seed)


def random_vectors(rng, count, size=17):
    return [rng.normal(size=size) for _ in range(count)]


def kept_layers(mode, hidden=(8, 8)):
    """Layers that every client keeps local after one round under `mode`.

    Each layer's span of every client's next start point must be either
    fully the client's own trained values or fully the shared average.
    """
    cfg = small_config(3, local_epochs=1, rounds=1, batch_size=32, eval_cadence=1,
                       personalization=mode, seed=31)
    cfg.model = replace(cfg.model, hidden=tuple(hidden))
    validate_config(cfg)
    datasets = small_federation(num_clients=3)
    _, pres, posts = last_round_vectors(cfg, datasets)
    shared = aggregate(pres, [ds.n_train for ds in datasets])
    net = Network(build_arch(cfg))
    kept = set()
    for layer in range(1, len(hidden) + 2):
        slc = net.layer_slice(layer)
        sides = {(np.array_equal(post[slc], pre[slc]),
                  np.array_equal(post[slc], shared[slc]))
                 for pre, post in zip(pres, posts)}
        assert sides in ({(True, False)}, {(False, True)}), (layer, sides)
        if sides == {(True, False)}:
            kept.add(layer)
    return kept


class TestMasks:
    def test_none_is_all_false(self):
        assert kept_layers("none") == set()

    def test_successive_full_depth_keeps_everything_local(self):
        assert kept_layers("successive:3") == {1, 2, 3}

    def test_successive_two_of_five(self):
        assert kept_layers("successive:2", hidden=(5, 5, 5, 5)) == {1, 2}

    def test_classifier_marks_final_layer(self):
        assert kept_layers("classifier") == {3}

    def test_skip_exact_layers(self):
        assert kept_layers("skip:1,3") == {1, 3}

    def test_out_of_range_rejected(self):
        for mode in ("successive:4", "skip:0", "sideways"):
            with pytest.raises(ConfigError):
                personalized_layers(mode, 3)


# every way a mode can be written: padding, spacing inside the argument,
# repeated and empty items of a skip list
PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def valid_modes(draw):
    """(L, mode text, the documented (canonical mode, layer set))."""
    num_layers = draw(st.integers(1, 8), label="L")
    kind = draw(st.sampled_from(["none", "classifier", "successive", "skip"]))
    if kind == "none":
        body, want = draw(st.sampled_from(["none", ""])), ("none", frozenset())
    elif kind == "classifier":
        body, want = "classifier", ("classifier", frozenset({num_layers}))
    elif kind == "successive":
        k = draw(st.integers(0, num_layers), label="k")
        body = f"successive:{draw(PAD)}{k}{draw(PAD)}"
        want = (f"successive:{k}", frozenset(range(1, k + 1)))
    else:
        layers = draw(st.lists(st.integers(1, num_layers), min_size=1, max_size=6))
        items = [f"{draw(PAD)}{p}{draw(PAD)}" for p in layers]
        items += draw(st.lists(PAD, max_size=2))
        body = "skip:" + ",".join(items)
        want = ("skip:" + ",".join(str(p) for p in sorted(set(layers))),
                frozenset(layers))
    return num_layers, f"{draw(PAD)}{body}{draw(PAD)}", want


@st.composite
def bad_modes(draw):
    """(L, a mode that is malformed, names no layer, or leaves the network)."""
    num_layers = draw(st.integers(1, 8), label="L")
    return num_layers, draw(st.one_of(
        st.sampled_from(["sideways", "Classifier", "successive", "skip", "successive:",
                         "successive:two", "successive:1.5", "successive :1", "skip:a",
                         "skip:1;2", "skip:", "skip: ,", "skip:,,"]),
        st.integers(num_layers + 1, 20).map(lambda k: f"successive:{k}"),
        st.integers(-5, -1).map(lambda k: f"successive:{k}"),
        st.lists(st.integers(1, num_layers), max_size=3).flatmap(
            lambda good: st.sampled_from([0, -1, num_layers + 1]).map(
                lambda bad: "skip:" + ",".join(map(str, good + [bad]))))))


class TestPersonalizedLayers:
    @settings(max_examples=300, deadline=None)
    @given(valid_modes())
    def test_documented_layers_and_canonical_round_trip(self, case):
        num_layers, mode, want = case
        assert personalized_layers(mode, num_layers) == want
        assert personalized_layers(want[0], num_layers) == want

    @settings(max_examples=300, deadline=None)
    @given(bad_modes())
    def test_bad_modes_are_config_errors(self, case):
        num_layers, mode = case
        with pytest.raises(ConfigError) as info:
            personalized_layers(mode, num_layers)
        assert info.value.field == "fed.personalization"


# 1-5 rows of one drawn length, each with a positive sample count
@st.composite
def weighted_rows(draw):
    k, size = draw(st.integers(1, 5)), draw(st.integers(1, 20))
    entries = st.floats(-1e6, 1e6, allow_nan=False)
    rows = [np.array(draw(st.lists(entries, min_size=size, max_size=size)))
            for _ in range(k)]
    counts = draw(st.lists(st.integers(1, 1000), min_size=k, max_size=k))
    return rows, counts, draw(st.permutations(range(k)))


class TestAggregate:
    @settings(max_examples=300, deadline=None)
    @given(weighted_rows())
    def test_order_free_convex_and_exact_on_identical_rows(self, case):
        rows, counts, perm = case
        out = aggregate(rows, counts)
        shuffled = aggregate([rows[i] for i in perm], [counts[i] for i in perm])
        assert shuffled.tobytes() == out.tobytes()
        stack = np.stack(rows)
        assert np.all(out >= stack.min(axis=0))
        assert np.all(out <= stack.max(axis=0))
        # the envelope of identical rows is the row itself (-0.0 may come back as 0.0)
        assert np.array_equal(aggregate([rows[0]] * len(rows), counts), rows[0])

    def test_scalar_weighted_mean(self):
        out = aggregate([np.array([0.0]), np.array([4.0])], [100, 300])
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    def test_three_clients_match_naive_oracle(self):
        rng = np.random.default_rng(53)
        rows = random_vectors(rng, 3)
        counts = [120, 45, 300]
        naive = sum(c * row for c, row in zip(counts, rows)) / sum(counts)
        out = aggregate(rows, counts)
        assert np.abs(out - naive).max() < 1e-12

    def test_equal_counts_equal_plain_mean(self):
        rng = np.random.default_rng(59)
        rows = random_vectors(rng, 4)
        out = aggregate(rows, [25, 25, 25, 25])
        assert np.abs(out - np.mean(rows, axis=0)).max() < 1e-12

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ShapeError):
            aggregate([np.array([1.0]), np.array([2.0])], [5, 0])

    def test_splice_restores_masked_coordinates(self):
        rng = np.random.default_rng(61)
        shared, trained = random_vectors(rng, 2, size=Network(ARCH).values.size)
        local = np.zeros(shared.size, dtype=bool)
        local[NET.layer_slice(1)] = True
        out = splice(shared, trained, local)
        assert np.array_equal(out[local], trained[local])
        assert np.array_equal(out[~local], shared[~local])


class TestRunFederation:
    def test_single_client_equals_centralized(self):
        datasets = small_federation(num_clients=1)
        cfg = small_config(1, local_epochs=2, rounds=3, batch_size=16,
                           eval_cadence=1, seed=13)
        _, _, post = last_round_vectors(cfg, datasets)
        central = Network(ARCH).init_random(derive_seed(13, "init"))
        for r in range(1, 4):
            sgd_epochs(central, datasets[0].train_x, datasets[0].train_labels,
                       epochs=2, lr=cfg.fed.lr, momentum=cfg.fed.momentum,
                       batch_size=16, seed=client_round_seed(13, 0, r))
        assert post[0].tobytes() == central.flatten().tobytes()

    def test_identical_inputs_make_aggregation_a_no_op(self):
        # the per-client shuffle streams are deliberately distinct inside a
        # real round, so symmetry is asserted on the components: identical
        # data + seed + init train to identical vectors, and averaging
        # identical vectors is exact
        datasets = small_federation(num_clients=1)
        trained = []
        for _ in range(3):
            net = Network(ARCH).init_random(seed=21)
            sgd_epochs(net, datasets[0].train_x, datasets[0].train_labels,
                       epochs=2, batch_size=16, seed=22)
            trained.append(net.flatten())
        agg = aggregate(trained, [60, 60, 60])
        assert agg.tobytes() == trained[0].tobytes()

    def test_zero_local_epochs_pipeline_no_op(self):
        datasets = small_federation(num_clients=3)
        cfg = small_config(3, local_epochs=0, rounds=2, eval_cadence=1, seed=23)
        _, _, post = last_round_vectors(cfg, datasets)
        init = Network(ARCH).init_random(derive_seed(23, "init")).flatten()
        for row in post:
            assert row.tobytes() == init.tobytes()

    def test_capture_schedule(self):
        datasets = small_federation(num_clients=3)
        cfg = small_config(3, local_epochs=1, rounds=2, batch_size=32, eval_cadence=1,
                           seed=25)
        records = run_federation(cfg, datasets)
        assert sorted({r.round for r in records}) == [1, 2]
        for m in range(3):
            for phase in ("pre", "post"):
                acc = [r for r in records
                       if r.metric == "train_acc" and r.client == m
                       and r.phase == phase]
                assert len(acc) == 2  # one capture per round per phase

    def test_successive_zero_equals_no_personalization(self):
        datasets = small_federation(num_clients=3)
        runs = []
        for mode in ("none", "successive:0"):
            cfg = small_config(3, local_epochs=1, rounds=2, batch_size=32,
                               eval_cadence=1, personalization=mode, seed=29)
            runs.append(last_round_vectors(cfg, datasets))
        (records, pre, _), (records_zero, pre_zero, _) = runs
        assert records == records_zero
        counts = [ds.n_train for ds in datasets]
        assert aggregate(pre, counts).tobytes() == aggregate(pre_zero, counts).tobytes()

    def test_personalized_layers_never_leave_the_client(self):
        datasets = small_federation(num_clients=3)
        cfg = small_config(3, local_epochs=1, rounds=3, batch_size=32, eval_cadence=3,
                           personalization="successive:1", seed=31)
        _, pres, posts = last_round_vectors(cfg, datasets)
        _, layers = personalized_layers(cfg.fed.personalization, 3)
        assert layers == frozenset({1})
        local = np.zeros(posts[0].size, dtype=bool)
        local[NET.layer_slice(1)] = True
        shared_part = posts[0][~local]
        for m in range(3):
            post = posts[m]
            pre = pres[m]
            # local span: the client's own trained values, bit-exact
            assert np.array_equal(post[local], pre[local])
            # the rest: one shared average for everyone
            assert np.array_equal(post[~local], shared_part)

    def test_metric_names_all_registered(self):
        datasets = small_federation(num_clients=2)
        cfg = small_config(2, scenario="finetune",
                           metrics={"probe_rounds": (2,), "probe_epochs": 5,
                                    "finetune_epochs": 1},
                           local_epochs=1, rounds=2, batch_size=32, eval_cadence=2,
                           seed=33)
        records = run_federation(cfg, datasets)
        assert all(is_registered(r.metric) for r in records)
        phases = {r.phase for r in records}
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
        before = net.flatten()
        out = pretrain(net, np.zeros((4, 6)), [0, 1, 2, 0], epochs=0)
        assert np.array_equal(out, before)

    def test_pooled_training_beats_random_init(self):
        datasets = small_federation(num_clients=3, seed=37, train=90, test=60)
        x = np.concatenate([ds.train_x for ds in datasets])
        labels = np.concatenate([ds.train_labels for ds in datasets])
        tx = np.concatenate([ds.test_x for ds in datasets])
        tl = np.concatenate([ds.test_labels for ds in datasets])
        net = Network(ARCH).init_random(seed=38)
        base = accuracy(net.forward(tx), tl)
        pretrain(net, x, labels, epochs=20, lr=0.05, batch_size=32, seed=39)
        assert accuracy(net.forward(tx), tl) > base

    def test_deterministic(self):
        datasets = small_federation(num_clients=2, seed=41)
        outs = []
        for _ in range(2):
            net = Network(ARCH).init_random(seed=42)
            outs.append(pretrain(net, datasets[0].train_x, datasets[0].train_labels,
                                 epochs=3, batch_size=16, seed=43))
        assert np.array_equal(outs[0], outs[1])


class TestFinetuneClassifier:
    def test_zero_epochs_unchanged(self):
        init = Network(ARCH).init_random(seed=45).flatten()
        out = finetune_classifier(init, ARCH, np.zeros((4, 6)),
                                  [0, 1, 2, 0], epochs=0)
        assert np.array_equal(out.values, init)

    def test_only_classifier_changes(self):
        datasets = small_federation(num_clients=1, seed=47)
        init = Network(ARCH).init_random(seed=48).flatten()
        out = finetune_classifier(init, ARCH, datasets[0].train_x,
                                  datasets[0].train_labels, batch_size=16, seed=49)
        head = NET.layer_slice(3)
        body = slice(0, head.start)
        assert np.array_equal(out.values[body], init[body])
        assert not np.array_equal(out.values[head], init[head])

    def test_separable_penultimate_features_reach_full_accuracy(self):
        # identity extractor, zero classifier: fine-tuning only the head on
        # well-separated clusters must reach perfect local train accuracy
        arch = [LayerSpec("linear", 2, 2), LayerSpec("linear", 2, 2)]
        net = Network(arch)
        param_views(net)[0][0][...] = np.eye(2)
        rng = np.random.default_rng(50)
        x = np.concatenate([rng.normal(size=(10, 2)) + [6, 6],
                            rng.normal(size=(10, 2)) - [6, 6]])
        labels = np.repeat([0, 1], 10)
        tuned = finetune_classifier(net.flatten(), arch, x, labels,
                                    batch_size=4, seed=51)
        assert accuracy(tuned.forward(x), labels) == 1.0
        assert np.array_equal(param_views(tuned)[0][0], np.eye(2))

    def test_one_loss_and_grad_call_per_minibatch(self, monkeypatch):
        # each a step of the classifier alone, on 23 rows in minibatches of 5
        calls = []
        real = Network.loss_and_grad

        def counting(self, x, *args, **kwargs):
            calls.append((self.num_layers, len(x)))
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Network, "loss_and_grad", counting)
        rng = np.random.default_rng(52)
        x = rng.normal(size=(23, 6))
        finetune_classifier(Network(ARCH).init_random(seed=53).flatten(), ARCH, x,
                            rng.integers(0, 3, size=23), epochs=3, batch_size=5, seed=54)
        assert len(calls) == 3 * math.ceil(23 / 5)
        assert calls == [(1, 5), (1, 5), (1, 5), (1, 5), (1, 3)] * 3

    @pytest.mark.parametrize("layer", [1, 2, 3])
    def test_non_finite_activation_names_the_layer_of_the_model(self, layer):
        # layers 1 and 2 are frozen, layer 3 is the classifier
        net = Network(mlp_specs(2, [2, 2], 2))
        for k in range(3):
            param_views(net)[k][0][...] = 1e308 if k == layer - 1 else np.eye(2)
        model = net.flatten()
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=f"^non-finite activation leaving "
                                                   f"layer {layer}$"):
                finetune_classifier(model, net.specs, np.ones((5, 2)), [0, 1, 0, 1, 0],
                                    epochs=1, batch_size=2)
        assert model.tobytes() == net.values.tobytes()


def test_local_epoch_ablation_budget():
    for epochs, rounds in LOCAL_EPOCH_ABLATION:
        assert epochs * rounds == 100


def test_client_round_seeds_distinct_and_stable():
    seeds = {client_round_seed(1, m, r) for m in range(4) for r in range(1, 31)}
    assert len(seeds) == 4 * 30
    assert client_round_seed(1, 2, 7) == client_round_seed(1, 2, 7)
