"""Small feed-forward networks with per-layer feature taps.

Layers are numbered 1..L from the input. Layer l owns a weight matrix of
shape (out_dim, in_dim), so a batch row x maps to x @ W.T + b. Feature tap
l holds the inputs to layer l+1; tap 0 is the raw batch and tap L-1 (the
input to the final layer) is the penultimate feature.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError, ShapeError

LAYER_KINDS = ("linear", "linear_relu", "residual")

FPNV_MAGIC = b"FPNV"
FPNV_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a plain linear map, linear + relu, or a residual block.

    A residual block computes x + f(x) where f is a chain of `inner_layers`
    linear maps (relu between them, none after the last) through width
    `inner_width`; it requires in_dim == out_dim so the skip connection is
    well formed.
    """

    kind: str
    in_dim: int
    out_dim: int
    has_bias: bool = True
    inner_width: int = 0
    inner_layers: int = 2

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ShapeError("layer dimensions must be positive")
        if self.kind == "residual":
            if self.in_dim != self.out_dim:
                raise ShapeError("residual block needs in_dim == out_dim")
            if self.inner_width < 1:
                raise ShapeError("residual block needs a positive inner width")
            if self.inner_layers < 1:
                raise ShapeError("residual block needs at least one inner layer")

    def tensor_shapes(self):
        """Canonical parameter tensor shapes for this layer."""
        if self.kind in ("linear", "linear_relu"):
            shapes = [(self.out_dim, self.in_dim)]
            if self.has_bias:
                shapes.append((self.out_dim,))
            return shapes
        dims = [self.in_dim] + [self.inner_width] * (self.inner_layers - 1) + [self.out_dim]
        shapes = []
        for i in range(self.inner_layers):
            shapes.append((dims[i + 1], dims[i]))
            if self.has_bias:
                shapes.append((dims[i + 1],))
        return shapes


@dataclass(frozen=True)
class LayoutEntry:
    """Position of one parameter tensor inside a flat vector."""

    layer: int  # 1-based layer index
    shape: tuple
    offset: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


@dataclass
class ParamVector:
    """All parameters of a network flattened to one float64 vector."""

    values: np.ndarray
    layout: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ShapeError("parameter vector must be 1-D")
        expect = sum(e.size for e in self.layout)
        if expect != self.values.size:
            raise ShapeError(
                f"layout covers {expect} values but vector has {self.values.size}")

    @property
    def size(self) -> int:
        return int(self.values.size)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)

    def layer_slice(self, layer: int) -> slice:
        """Contiguous span of all tensors belonging to a 1-based layer index."""
        entries = [e for e in self.layout if e.layer == layer]
        if not entries:
            raise ShapeError(f"no parameters for layer {layer}")
        start = entries[0].offset
        stop = entries[-1].offset + entries[-1].size
        return slice(start, stop)

    def interface_weight(self, layer: int) -> np.ndarray:
        """First 2-D tensor of a 1-based layer, the matrix consuming its inputs."""
        for e in self.layout:
            if e.layer == layer and len(e.shape) == 2:
                return self.values[e.offset:e.offset + e.size].reshape(e.shape)
        raise ShapeError(f"no weight matrix for layer {layer}")


def _relu(x):
    return np.maximum(x, 0.0)


class Network:
    """A chain of LayerSpec layers ending in a linear classifier.

    All parameters live in one contiguous float64 vector, `values`, laid out
    as `layout` says; `params[l][i]` is a reshaped view of tensor i of layer
    l + 1, so writes through either form show up in the other. The final
    layer's out_dim is the class count; training minimizes mean softmax
    cross-entropy of the logits.
    """

    def __init__(self, specs):
        specs = tuple(specs)
        if not specs:
            raise ShapeError("network needs at least one layer")
        for a, b in zip(specs, specs[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {a.out_dim} then {b.in_dim}")
        self.specs = specs
        entries, starts, offset = [], [], 0
        for layer, spec in enumerate(specs, start=1):
            starts.append(offset)
            for shape in spec.tensor_shapes():
                entries.append(LayoutEntry(layer=layer, shape=shape, offset=offset))
                offset += entries[-1].size
        self.layout = tuple(entries)
        self._layer_starts = tuple(starts)
        self.values = np.zeros(offset)
        self.params = [[self.values[e.offset:e.offset + e.size].reshape(e.shape)
                        for e in self.layout if e.layer == layer]
                       for layer in range(1, len(specs) + 1)]

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def num_classes(self) -> int:
        return self.specs[-1].out_dim

    def layer_start(self, layer: int) -> int:
        """Offset in `values` where the parameters of a 1-based layer begin."""
        if not 1 <= layer <= self.num_layers:
            raise ShapeError(f"layer index {layer} out of range 1..{self.num_layers}")
        return self._layer_starts[layer - 1]

    def init_random(self, seed: int = 0) -> "Network":
        """Uniform weights in +-1/sqrt(fan_in); biases zero. Deterministic."""
        rng = np.random.default_rng(seed)
        for tensors in self.params:
            for arr in tensors:
                if arr.ndim == 2:
                    bound = 1.0 / np.sqrt(arr.shape[1])
                    arr[...] = rng.uniform(-bound, bound, size=arr.shape)
                else:
                    arr[...] = 0.0
        return self

    def flatten(self) -> ParamVector:
        return ParamVector(self.values.copy(), self.layout)

    def load_vector(self, pv: ParamVector) -> "Network":
        if pv.layout != self.layout:
            raise FormatError("parameter layout does not match this architecture")
        self.values[...] = pv.values
        return self

    @classmethod
    def from_vector(cls, specs, pv: ParamVector) -> "Network":
        return cls(specs).load_vector(pv)

    def interface_weight(self, layer: int) -> np.ndarray:
        """Weight matrix multiplying the features entering a 1-based layer.

        For residual blocks this is the first inner weight, the matrix that
        directly consumes the block input.
        """
        self.layer_start(layer)  # range check
        return self.params[layer - 1][0]

    def _check_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"batch must be (n, {self.in_dim}), got {np.shape(x)}")
        return x

    def _layer_forward(self, idx, h, keep_cache):
        spec = self.specs[idx]
        tensors = self.params[idx]
        if spec.kind in ("linear", "linear_relu"):
            w = tensors[0]
            u = h @ w.T
            if spec.has_bias:
                u = u + tensors[1]
            out = _relu(u) if spec.kind == "linear_relu" else u
            cache = (h, u) if keep_cache else None
            return out, cache
        # residual block: out = h + f(h)
        inner_inputs = []
        pre_acts = []
        g = h
        step = 2 if spec.has_bias else 1
        for i in range(spec.inner_layers):
            w = tensors[i * step]
            inner_inputs.append(g)
            u = g @ w.T
            if spec.has_bias:
                u = u + tensors[i * step + 1]
            pre_acts.append(u)
            g = _relu(u) if i < spec.inner_layers - 1 else u
        out = h + g
        cache = (inner_inputs, pre_acts) if keep_cache else None
        return out, cache

    def forward(self, x):
        """Run the network; returns (logits, taps) with taps[l] = input to layer l+1."""
        h = self._check_batch(x)
        taps = [h]
        for idx in range(self.num_layers):
            h, _ = self._layer_forward(idx, h, keep_cache=False)
            if not np.isfinite(h).all():
                raise NumericError(f"non-finite activation leaving layer {idx + 1}")
            if idx < self.num_layers - 1:
                taps.append(h)
        return h, taps

    def loss_and_grad(self, x, y, train_from: int = 1):
        """Mean softmax cross-entropy and its gradient as a flat array.

        The gradient covers `values[layer_start(train_from):]`, the parameters
        of layers train_from..L; backward stops there. y is one-hot with the
        classifier's class count.
        """
        x = self._check_batch(x)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (x.shape[0], self.num_classes):
            raise ShapeError(
                f"labels must be one-hot ({x.shape[0]}, {self.num_classes}), got {y.shape}")
        self.layer_start(train_from)  # range check
        first = train_from - 1
        h = x
        caches = []
        for idx in range(self.num_layers):
            h, cache = self._layer_forward(idx, h, keep_cache=idx >= first)
            if not np.isfinite(h).all():
                raise NumericError(f"non-finite activation leaving layer {idx + 1}")
            caches.append(cache)
        logits = h
        n = x.shape[0]
        z = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(z)
        lse = np.log(expz.sum(axis=1))
        loss = float(np.mean(lse - (z * y).sum(axis=1)))
        if not np.isfinite(loss):
            raise NumericError("loss is not finite")
        p = expz / expz.sum(axis=1, keepdims=True)
        g = (p - y) / n

        grads = []
        for idx in range(self.num_layers - 1, first - 1, -1):
            g, layer_grads = self._layer_backward(idx, g, caches[idx], input_grad=idx > first)
            grads.append(layer_grads)
        return loss, np.concatenate([arr.ravel() for tensors in reversed(grads)
                                     for arr in tensors])

    def _layer_backward(self, idx, g_out, cache, input_grad):
        """Parameter gradients of one layer, and the gradient of its input if asked."""
        spec = self.specs[idx]
        tensors = self.params[idx]
        if spec.kind in ("linear", "linear_relu"):
            h, u = cache
            g_pre = g_out * (u > 0) if spec.kind == "linear_relu" else g_out
            gw = g_pre.T @ h
            grads = [gw]
            if spec.has_bias:
                grads.append(g_pre.sum(axis=0))
            g_in = g_pre @ tensors[0] if input_grad else None
            return g_in, grads
        inner_inputs, pre_acts = cache
        step = 2 if spec.has_bias else 1
        grads_rev = []
        g = g_out
        for i in range(spec.inner_layers - 1, -1, -1):
            if i < spec.inner_layers - 1:
                g = g * (pre_acts[i] > 0)
            w = tensors[i * step]
            gw = g.T @ inner_inputs[i]
            if spec.has_bias:
                grads_rev.append(g.sum(axis=0))
            grads_rev.append(gw)
            if i > 0 or input_grad:
                g = g @ w
        g_in = g_out + g if input_grad else None
        return g_in, list(reversed(grads_rev))


def sgd_epochs(net: Network, x, y, epochs: int, lr: float = 0.01,
               momentum: float = 0.5, batch_size: int = 64, seed: int = 0,
               train_from: int = 1) -> Network:
    """Train in place with mini-batch SGD and classical momentum.

    Velocity starts at zero on every call: v <- momentum*v + g, then
    theta <- theta - lr*v. Each epoch reshuffles with the generator seeded
    once per call, so the whole batch schedule is a pure function of `seed`.
    epochs == 0 returns the network untouched. Only layers train_from..L
    (1-based) are updated; the layers below keep their exact bit patterns.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) == 0:
        raise ShapeError("cannot train on an empty dataset")
    if len(x) != len(y):
        raise ShapeError("inputs and labels differ in length")
    if epochs < 0:
        raise ShapeError("epochs must be non-negative")
    tail = net.values[net.layer_start(train_from):]
    if epochs == 0:
        return net
    rng = np.random.default_rng(seed)
    n = len(x)
    velocity = np.zeros(tail.size)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            _, grad = net.loss_and_grad(x[idx], y[idx], train_from)
            velocity = momentum * velocity + grad
            tail += -lr * velocity
    return net


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError("label out of range for one-hot encoding")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def labels_of(y_onehot) -> np.ndarray:
    return np.argmax(np.asarray(y_onehot), axis=1)


def save_params(pv: ParamVector, path) -> None:
    """Write a ParamVector in the FPNV binary format."""
    blob = bytearray()
    blob += FPNV_MAGIC
    blob += struct.pack("<H", FPNV_VERSION)
    blob += struct.pack("<I", len(pv.layout))
    for entry in pv.layout:
        blob += struct.pack("<IB", entry.layer, len(entry.shape))
        for d in entry.shape:
            blob += struct.pack("<I", d)
        chunk = pv.values[entry.offset:entry.offset + entry.size]
        blob += chunk.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_params(path) -> ParamVector:
    """Read a ParamVector from the FPNV binary format."""
    data = Path(path).read_bytes()
    if len(data) < 10:
        raise FormatError(f"{path}: truncated header at offset 0")
    if data[:4] != FPNV_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at offset 0")
    version, = struct.unpack_from("<H", data, 4)
    if version != FPNV_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    count, = struct.unpack_from("<I", data, 6)
    pos = 10
    entries = []
    chunks = []
    offset = 0
    for _ in range(count):
        if pos + 5 > len(data):
            raise FormatError(f"{path}: truncated tensor header at offset {pos}")
        layer, ndims = struct.unpack_from("<IB", data, pos)
        pos += 5
        if pos + 4 * ndims > len(data):
            raise FormatError(f"{path}: truncated dims at offset {pos}")
        shape = struct.unpack_from(f"<{ndims}I", data, pos)
        pos += 4 * ndims
        size = int(np.prod(shape)) if ndims else 1
        nbytes = size * 8
        if pos + nbytes > len(data):
            raise FormatError(f"{path}: truncated tensor data at offset {pos}")
        chunks.append(np.frombuffer(data, dtype="<f8", count=size, offset=pos).astype(np.float64))
        entries.append(LayoutEntry(layer=layer, shape=tuple(int(d) for d in shape), offset=offset))
        offset += size
        pos += nbytes
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes at offset {pos}")
    values = np.concatenate(chunks) if chunks else np.zeros(0)
    return ParamVector(values, tuple(entries))


def mlp_specs(input_dim: int, hidden, num_classes: int, activation: str = "relu",
              residual: bool = False, residual_width: int = 0,
              residual_inner: int = 2):
    """Layer specs for an MLP: hidden layers then a linear classifier.

    With residual=True, hidden layers whose input and output widths match
    become residual blocks (inner width defaults to the layer width).
    """
    kind = "linear_relu" if activation == "relu" else "linear"
    dims = [input_dim] + list(hidden) + [num_classes]
    specs = []
    for i in range(len(hidden)):
        a, b = dims[i], dims[i + 1]
        if residual and a == b:
            specs.append(LayerSpec("residual", a, b,
                                   inner_width=residual_width or b,
                                   inner_layers=residual_inner))
        else:
            specs.append(LayerSpec(kind, a, b))
    specs.append(LayerSpec("linear", dims[-2], dims[-1]))
    return specs
