"""Network tests: forward taps, backprop vs finite differences, SGD
semantics, the flat parameter buffer, init determinism, the binary parameter
format, and golden values that pin the layer kernels across versions."""

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import all_taps, frozen_forward, linear_hidden, param_views
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedlens.errors import FormatError, NumericError, ShapeError
from fedlens.fed import finetune_classifier
from fedlens.nn import (LayerSpec, Network, load_params, mlp_specs,
                        save_params, sgd_epochs)


def identity_net(num_layers, dim):
    net = Network([LayerSpec("linear", dim, dim) for _ in range(num_layers)])
    for tensors in param_views(net):
        tensors[0][...] = np.eye(dim)
    return net


def taps_of(net, x):
    """Every tap of net on the rows of x, tap 0 (the rows themselves) first."""
    x = np.asarray(x, dtype=np.float64)
    fms = all_taps(net, x, np.zeros(len(x), dtype=int))
    return [fms[t].values for t in range(net.num_layers)]


def fd_gradient_check(net, x, labels, coords, h=1e-5):
    """Max relative error of analytic vs central-difference gradient."""
    _, grad = net.loss_and_grad(x, labels)
    theta = net.flatten()
    worst = 0.0
    for i in coords:
        for sign in (+1.0, -1.0):
            net.values[...] = theta
            net.values[i] += sign * h
            loss = net.loss_and_grad(x, labels)[0]
            if sign > 0:
                up = loss
            else:
                down = loss
        numeric = (up - down) / (2 * h)
        denom = max(abs(numeric), abs(grad[i]), 1e-8)
        worst = max(worst, abs(numeric - grad[i]) / denom)
    net.values[...] = theta
    return worst


class TestForward:
    def test_identity_layers_taps_equal_input(self):
        net = identity_net(3, 4)
        x = np.random.default_rng(0).normal(size=(6, 4))
        logits, taps = net.forward(x), taps_of(net, x)
        assert len(taps) == 3
        for tap in taps:
            assert np.array_equal(tap, x)
        assert np.array_equal(logits, x)

    def test_deep_linear_tap_is_explicit_product(self):
        specs = [LayerSpec("linear", 5, 4),
                 LayerSpec("linear", 4, 4),
                 LayerSpec("linear", 4, 3)]
        net = Network(specs).init_random(seed=2)
        w1, w2, w3 = (param_views(net)[i][0] for i in range(3))
        x = np.random.default_rng(3).normal(size=(7, 5))
        logits, taps = net.forward(x), taps_of(net, x)
        assert np.abs(taps[1] - x @ w1.T).max() < 1e-10
        assert np.abs(taps[2] - x @ w1.T @ w2.T).max() < 1e-10
        assert np.abs(logits - x @ w1.T @ w2.T @ w3.T).max() < 1e-10

    def test_relu_tap(self):
        net = Network([LayerSpec("linear_relu", 2, 2), LayerSpec("linear", 2, 2)])
        param_views(net)[0][0][...] = np.eye(2)
        assert np.array_equal(taps_of(net, [[-1.0, 2.0]])[1], [[0.0, 2.0]])

    def test_batch_shape_rejected(self):
        net = identity_net(1, 3)
        with pytest.raises(ShapeError):
            net.forward(np.ones((2, 4)))

    def test_non_finite_activation_names_layer(self):
        net = identity_net(2, 1)
        param_views(net)[0][0][...] = 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="layer 1"):
                net.forward([[1e200]])

    @pytest.mark.parametrize("layer", [0, 3])
    def test_layer_outputs_rejects_a_layer_out_of_range(self, layer):
        net = Network(mlp_specs(3, [4], 2)).init_random(seed=30)
        with pytest.raises(ShapeError, match=rf"^layer index {layer} out of range 1\.\.2$"):
            net.layer_outputs(layer, np.ones((2, 3)), batch_size=8)

    def test_residual_zero_inner_is_identity(self):
        net = Network([LayerSpec("residual", 3, 3, inner_width=5),
                       LayerSpec("linear", 3, 2)])
        x = np.random.default_rng(4).normal(size=(5, 3))
        assert np.array_equal(taps_of(net, x)[1], x)


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_c(self):
        net = Network([LayerSpec("linear", 4, 10)])  # zero params -> zero logits
        x = np.random.default_rng(1).normal(size=(8, 4))
        labels = np.arange(8) % 10
        loss, _ = net.loss_and_grad(x, labels)
        assert loss == pytest.approx(np.log(10.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        net = Network(mlp_specs(6, [8], 3)).init_random(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 6))
        labels = rng.integers(0, 3, size=10)
        coords = rng.choice(net.flatten().size, size=20, replace=False)
        assert fd_gradient_check(net, x, labels, coords) < 1e-4

    @pytest.mark.parametrize("specs", [
        [LayerSpec("linear", 5, 4), LayerSpec("linear", 4, 3)],
        [LayerSpec("linear_relu", 5, 6), LayerSpec("linear", 6, 3)],
        [LayerSpec("residual", 5, 5, inner_width=7),
         LayerSpec("linear", 5, 3)],
    ], ids=["linear", "relu", "residual"])
    def test_gradient_all_layer_kinds(self, specs):
        net = Network(specs).init_random(seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 5))
        labels = rng.integers(0, 3, size=12)
        coords = rng.choice(net.flatten().size, size=15, replace=False)
        assert fd_gradient_check(net, x, labels, coords) < 1e-4

    def test_confident_correct_prediction_loss_near_zero(self):
        net = Network([LayerSpec("linear", 2, 2)])
        param_views(net)[0][0][...] = [[50.0, 0.0], [0.0, 50.0]]
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = net.loss_and_grad(x, [0, 1])
        assert loss < 1e-6

    def test_label_shape_rejected(self):
        net = identity_net(1, 2)
        with pytest.raises(ShapeError):
            net.loss_and_grad(np.ones((3, 2)), np.ones((3, 5)))

    def test_batch_width_rejected(self):
        net = Network(mlp_specs(3, [4], 2)).init_random(seed=29)
        with pytest.raises(ShapeError, match=r"batch must be \(n, 3\)"):
            net.loss_and_grad(np.ones((2, 4)), [0, 1])


class TestSgd:
    def make_problem(self, seed=0):
        net = Network(mlp_specs(2, [4], 2)).init_random(seed=seed)
        x = np.array([[1.0, 1.0], [2.0, 1.5], [-1.0, -1.0], [-2.0, -1.5]])
        labels = np.array([0, 0, 1, 1])
        return net, x, labels

    def test_zero_epochs_unchanged(self):
        net, x, labels = self.make_problem()
        before = net.flatten()
        sgd_epochs(net, x, labels, epochs=0)
        assert np.array_equal(net.flatten(), before)

    def test_separable_batch_loss_decreases(self):
        net, x, labels = self.make_problem(seed=1)
        loss0, _ = net.loss_and_grad(x, labels)
        sgd_epochs(net, x, labels, epochs=50, lr=0.1, momentum=0.5,
                   batch_size=len(x), seed=2)
        loss1, _ = net.loss_and_grad(x, labels)
        assert loss1 < loss0

    def test_momentum_zero_single_step_exact(self):
        # the epoch shuffle reorders rows, which changes summation order in
        # the backward matmuls, so the oracle gradient must see the same
        # permuted batch to land on identical bits
        net, x, labels = self.make_problem(seed=3)
        theta = net.flatten()
        perm = np.random.default_rng(4).permutation(len(x))
        _, grad = net.loss_and_grad(x[perm], labels[perm])
        want = theta - 0.05 * grad
        sgd_epochs(net, x, labels, epochs=1, lr=0.05, momentum=0.0,
                   batch_size=len(x), seed=4)
        assert np.array_equal(net.flatten(), want)

    def test_same_seed_same_result(self):
        runs = []
        for _ in range(2):
            net, x, labels = self.make_problem(seed=5)
            sgd_epochs(net, x, labels, epochs=3, batch_size=2, seed=6)
            runs.append(net.flatten())
        assert np.array_equal(runs[0], runs[1])

    def test_empty_dataset_rejected(self):
        net, _, _ = self.make_problem()
        with pytest.raises(ShapeError):
            sgd_epochs(net, np.zeros((0, 2)), np.zeros((0, 2)), epochs=1)

    @pytest.mark.parametrize("first", [1, 2, 3])
    def test_partial_gradient_is_tail_of_full_gradient(self, first):
        # a network of layers first..L holding the tail of the vector, run on
        # tap first-1, has the full network's loss and gradient tail; the
        # residual block sits at layer 2 and also as layer 1 (input width
        # equals the hidden width), so both cuts cross a block
        net = Network(mlp_specs(4, [4, 4], 3, residual=True)).init_random(seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(7, 4))
        labels = rng.integers(0, 3, size=7)
        loss, full = net.loss_and_grad(x, labels)
        start = net.layer_slice(first).start
        part_net = Network.from_vector(net.specs[first - 1:], net.values[start:])
        part_loss, part = part_net.loss_and_grad(taps_of(net, x)[first - 1], labels)
        assert part_loss == loss
        assert np.array_equal(part, full[start:])

    def test_backward_stop_step_matches_full_gradient_tail(self):
        # one momentum-0 step training only the classifier moves exactly its
        # coordinates, by the full gradient of the same permuted batch
        net = Network(mlp_specs(3, [5, 5], 2, residual=True)).init_random(seed=20)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)
        theta = net.flatten()
        perm = np.random.default_rng(22).permutation(len(x))
        _, grad = net.loss_and_grad(x[perm], labels[perm])
        head = net.layer_slice(net.num_layers)
        after = finetune_classifier(theta, net.specs, x, labels, epochs=1, lr=0.05,
                                    momentum=0.0, batch_size=len(x), seed=22).flatten()
        want = theta[head] - 0.05 * grad[head]
        assert np.array_equal(after[head], want)
        assert np.array_equal(after[:head.start], theta[:head.start])

    def test_one_loss_and_grad_call_per_minibatch(self, monkeypatch):
        rows = []
        real = Network.loss_and_grad

        def counting(self, x, *args, **kwargs):
            rows.append(len(x))
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Network, "loss_and_grad", counting)
        net = Network(mlp_specs(3, [4, 4], 2)).init_random(seed=26)
        rng = np.random.default_rng(27)
        x = rng.normal(size=(23, 3))
        labels = rng.integers(0, 2, size=23)
        sgd_epochs(net, x, labels, epochs=3, batch_size=5, seed=28)
        assert len(rows) == 3 * math.ceil(23 / 5)
        assert rows == [5, 5, 5, 5, 3] * 3


small_specs = st.builds(
    mlp_specs,
    input_dim=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 4), max_size=3),
    num_classes=st.integers(1, 3),
    residual=st.booleans(),
    residual_width=st.integers(0, 3),
    residual_inner=st.integers(1, 3)).flatmap(
        lambda specs: st.sampled_from([specs, linear_hidden(specs)]))


class TestFlatBuffer:
    @settings(max_examples=60, deadline=None)
    @given(specs=small_specs, seed=st.integers(0, 2**16))
    def test_params_are_views_of_values(self, specs, seed):
        net = Network(specs).init_random(seed=seed)
        # the maps tile the vector in order: each weight (out, in), then its bias
        at = 0
        for spec, maps in zip(net.specs, net._maps):
            assert ([(w.shape[1], w.shape[0], relu) for w, _, relu, _ in maps]
                    == list(spec.maps()))
            for w, b, _, offset in maps:
                assert offset == at and b.shape == (w.shape[0],)
                for arr in (w, b):
                    assert np.shares_memory(arr, net.values)
                    arr[...] = np.arange(arr.size).reshape(arr.shape) + at + 0.5
                    assert np.array_equal(net.flatten()[at:at + arr.size], arr.ravel())
                    at += arr.size
        assert at == net.values.size
        other = Network.from_vector(specs, net.flatten())
        assert other.flatten().tobytes() == net.values.tobytes()
        assert not np.shares_memory(other.values, net.values)
        # the layers' spans tile the vector in order, each starting at its
        # interface weight, which is a view too
        stop = 0
        for layer in range(1, net.num_layers + 1):
            weight = net.interface_weight(layer)
            assert np.shares_memory(weight, net.values)
            weight[...] = -1.0
            assert np.array_equal(net._maps[layer - 1][0][0], weight)
            span = net.layer_slice(layer)
            assert span.start == net._maps[layer - 1][0][3] == stop
            assert span.stop - span.start == sum(t.size for t in param_views(net)[layer - 1])
            stop = span.stop
        assert stop == net.values.size


def reference_finetune(model, arch, x, labels, epochs, lr, momentum, batch_size, seed):
    """finetune_classifier as plain loops: the penultimate features of
    batch_size-row blocks in row order, then one SGD step per minibatch of
    a one-layer network holding the classifier. Returns the model's vector
    with the trained classifier."""
    net = Network.from_vector(arch, model)
    last = net.num_layers
    features = np.concatenate([frozen_forward(net, x[lo:lo + batch_size], last - 1)
                               for lo in range(0, len(x), batch_size)])
    start = net.layer_slice(last).start
    head = Network.from_vector(arch[-1:], model[start:])
    rng = np.random.default_rng(seed)
    velocity = np.zeros(head.values.size)
    for _ in range(epochs):
        perm = rng.permutation(len(x))
        for lo in range(0, len(x), batch_size):
            idx = perm[lo:lo + batch_size]
            _, grad = head.loss_and_grad(features[idx], labels[idx])
            velocity = momentum * velocity + grad
            head.values[...] += -lr * velocity
    return np.concatenate([model[:start], head.values])


class TestFrozenPrefix:
    """finetune_classifier runs the frozen layers once per call, not per step."""

    @settings(max_examples=60, deadline=None)
    @given(specs=small_specs, data=st.data())
    def test_matches_per_minibatch_reference_bitwise(self, specs, data):
        batch_size = data.draw(st.integers(1, 6), label="batch_size")
        n = (data.draw(st.integers(0, 5), label="full_batches") * batch_size
             + data.draw(st.integers(0, batch_size - 1), label="remainder"))
        assume(n > 0)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, specs[0].in_dim))
        labels = rng.integers(0, specs[-1].out_dim, size=n)
        model = Network(specs).init_random(seed=seed).flatten()
        out = finetune_classifier(model, specs, x, labels, epochs=2, lr=0.1,
                                  momentum=0.5, batch_size=batch_size, seed=seed)
        ref = reference_finetune(model, specs, x, labels, epochs=2, lr=0.1,
                                 momentum=0.5, batch_size=batch_size, seed=seed)
        assert out.values.tobytes() == ref.tobytes()
        start = out.layer_slice(len(specs)).start
        assert out.values[:start].tobytes() == model[:start].tobytes()


def reference_loss_and_grad(net, h, labels):
    """loss_and_grad with every step out of place.

    The labels enter as a one-hot matrix. Each layer is a chain of (W, b) maps with relu after every map of a
    linear_relu layer and after all but the last map of a residual block.
    """
    layers = []
    for spec, tensors in zip(net.specs, param_views(net)):
        ws = tensors[0::2]
        relus = ([True] * (len(ws) - 1) + [False] if spec.kind == "residual"
                 else [spec.kind == "linear_relu"])
        inputs, pre_acts, g = [], [], h
        for w, b, relu in zip(ws, tensors[1::2], relus):
            inputs.append(g)
            u = g @ w.T
            u = u + b
            pre_acts.append(u)
            g = np.maximum(u, 0.0) if relu else u
        layers.append((ws, relus, inputs, pre_acts, spec.kind == "residual"))
        h = h + g if spec.kind == "residual" else g
    n = h.shape[0]
    y = np.eye(h.shape[1])[labels]
    z = h - h.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sums = expz.sum(axis=1, keepdims=True)
    loss = float((np.log(sums[:, 0]) - (z * y).sum(axis=1)).sum()) / n
    g_out = (expz / sums - y) / n
    parts = []
    for ws, relus, inputs, pre_acts, residual in reversed(layers):
        g, layer_parts = g_out, []
        for j in reversed(range(len(ws))):
            if relus[j]:
                g = g * (pre_acts[j] > 0)
            layer_parts = [(g.T @ inputs[j]).ravel(), g.sum(axis=0)] + layer_parts
            g = g @ ws[j]
        g_out = g_out + g if residual else g
        parts = layer_parts + parts
    return loss, np.concatenate(parts)


class TestInPlaceKernels:
    """The forward and the softmax gradient reuse their own buffers only."""

    @settings(max_examples=100, deadline=None)
    @given(specs=small_specs, data=st.data())
    def test_match_out_of_place_reference_and_leave_inputs_alone(self, specs, data):
        n = data.draw(st.integers(1, 9), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        net = Network(specs)
        net.values[...] = rng.normal(size=net.values.size)
        x = rng.normal(size=(n, specs[0].in_dim))
        labels = rng.integers(0, specs[-1].out_dim, size=n)
        batch = x.copy()
        loss, grad = net.loss_and_grad(x, labels)
        ref_loss, ref_grad = reference_loss_and_grad(net, batch, labels)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()
        assert x.tobytes() == batch.tobytes()


class TestInitAndVectors:
    def test_same_seed_identical(self):
        a = Network(mlp_specs(4, [8, 8], 3)).init_random(seed=10).flatten()
        b = Network(mlp_specs(4, [8, 8], 3)).init_random(seed=10).flatten()
        assert np.array_equal(a, b)

    def test_load_flatten_roundtrip(self):
        net = Network(mlp_specs(4, [6], 3)).init_random(seed=11)
        theta = net.flatten()
        other = Network.from_vector(mlp_specs(4, [6], 3), theta)
        assert np.array_equal(other.flatten(), theta)
        assert other.specs == net.specs
        theta[0] += 1.0  # both sides are copies
        assert other.values[0] == net.values[0] != theta[0]

    @pytest.mark.parametrize("shape", [(50,), (52,), (1, 51), ()])
    def test_from_vector_wrong_size_rejected(self, shape):
        specs = mlp_specs(4, [6], 3)  # 51 parameters
        with pytest.raises(ShapeError, match=r"parameter vector must be \(51,\)"):
            Network.from_vector(specs, np.zeros(shape))

    def test_uniform_mean_within_3_sigma(self):
        net = Network([LayerSpec("linear", 100, 100)])
        net.init_random(seed=12)
        w = param_views(net)[0][0]
        bound = 1.0 / np.sqrt(100)
        sigma_mean = (bound / np.sqrt(3.0)) / np.sqrt(w.size)
        assert abs(w.mean()) < 3 * sigma_mean
        assert np.all(np.abs(w) <= bound)

    def test_biases_start_zero(self):
        net = Network(mlp_specs(4, [6], 3)).init_random(seed=13)
        assert np.array_equal(param_views(net)[0][1], np.zeros(6))


class TestParamFormat:
    @settings(max_examples=60, deadline=None)
    @given(specs=small_specs, seed=st.integers(0, 2**16))
    def test_save_load_roundtrip(self, specs, seed):
        # plain nets, and residual blocks of one to three inner maps
        net = Network(specs).init_random(seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.fpnv"
            save_params(net, path)
            loaded = load_params(path)
        assert loaded.specs == net.specs
        assert loaded.values.tobytes() == net.values.tobytes()
        for layer in range(1, net.num_layers + 1):
            assert loaded.layer_slice(layer) == net.layer_slice(layer)
            assert np.array_equal(loaded.interface_weight(layer), net.interface_weight(layer))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fpnv"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_params(path)

    def test_truncated(self, tmp_path):
        net = Network(mlp_specs(3, [2], 2)).init_random(seed=15)
        path = tmp_path / "cut.fpnv"
        save_params(net, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="offset"):
            load_params(path)


def test_sgd_epochs_rejects_out_of_range_labels():
    # checked once per call, so nothing trains before the error
    net = Network([LayerSpec("linear", 2, 3)])
    for labels in ([0, 3], [-1, 0]):
        with pytest.raises(ShapeError, match=r"labels out of range 0\.\.2"):
            sgd_epochs(net, np.ones((2, 2)), labels, epochs=1)
    assert not net.values.any()


# Golden values of three seeded networks, computed before the layer kernels
# became one chain-of-maps loop: the sha256 of the init's little-endian
# parameter vector (uniform draws and zeros, no BLAS, so exact), then the loss
# and the sum of each tensor's gradient after one loss_and_grad on nudged
# parameters. Any change to tensor order, init or the kernels' arithmetic
# shows here.
GOLDEN_NETS = {
    "plain": (
        dict(input_dim=5, hidden=[6, 4], num_classes=3),
        "f1af90ad76cdd8823284e5576f89a518e4e0bc5e194e1dfeca5dd87e73dc444b",
        1.111483731894542,
        [-0.09888042165347177, -0.019355048830747006, -0.018351022274634296,
         0.00364198182906022, -1.734723475976807e-18, -5.551115123125783e-17]),
    "residual_inner_1": (
        dict(input_dim=4, hidden=[4, 4, 3], num_classes=3, residual=True,
             residual_width=5, residual_inner=1),
        "af93d8d27ae2e6ac05e9251a570c94535f8aac7fdb8b42c8ce26783828219669",
        1.053612648907007,
        [0.08910873405507166, -0.038616116495533634, 0.14321308544875988,
         -0.0322782804566278, 0.35007684050555515, -0.07478887203543759,
         2.7755575615628914e-17, -2.0816681711721685e-17]),
    "residual_inner_3": (
        dict(input_dim=4, hidden=[4, 4, 3], num_classes=3, residual=True,
             residual_width=5, residual_inner=3),
        "457e506920220d11203f98066b7ee4cf011c1dbe10e93c9fe70fae62ef99164c",
        1.108997862650408,
        [-0.014479836198006696, -0.0052148692733613704, 0.0028195610790808503,
         0.007231601107352093, 0.017521713009440377, 0.07611048550419908,
         -0.14154051476995066, -0.03970813151088845, -0.021165498494030204,
         -0.0058830864242157485, 0.04165596412688562, 0.0799154426701954,
         0.228250377257905, 0.12343001957968688, -5.551115123125783e-17,
         1.3877787807814457e-17]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_NETS))
def test_layer_engine_matches_golden_values(name):
    kwargs, digest, want_loss, want_sums = GOLDEN_NETS[name]
    net = Network(mlp_specs(**kwargs)).init_random(seed=41)
    assert hashlib.sha256(net.values.astype("<f8").tobytes()).hexdigest() == digest
    rng = np.random.default_rng(42)
    net.values[...] += rng.normal(scale=0.1, size=net.values.size)
    x = rng.normal(size=(9, kwargs["input_dim"]))
    labels = rng.integers(0, kwargs["num_classes"], size=9)
    loss, grad = net.loss_and_grad(x, labels)
    # the classifier's sums are zero up to rounding, hence the absolute floor
    assert loss == pytest.approx(want_loss, rel=1e-10)
    sums = [t.sum() for views in param_views(Network.from_vector(net.specs, grad))
            for t in views]
    assert sums == pytest.approx(want_sums, rel=1e-10, abs=1e-15)
