"""Small feed-forward networks with per-layer feature taps.

Layers are numbered 1..L from the input. Layer l owns a weight matrix of
shape (out_dim, in_dim), so a batch row x maps to x @ W.T + b. Feature tap
l holds the inputs to layer l+1; tap 0 is the raw batch and tap L-1 (the
input to the final layer) is the penultimate feature.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, pairwise, repeat
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError, ShapeError

LAYER_KINDS = ("linear", "linear_relu", "residual")

FPNV_MAGIC = b"FPNV"
FPNV_VERSION = 2
FPNV_LAYER = struct.Struct("<B4I")  # kind code, in, out, inner width, inner layers


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a plain linear map, linear + relu, or a residual block.

    Every layer is a chain of affine maps x @ W.T + b (see `maps`). A
    residual block computes x + f(x) where f is a chain of `inner_layers`
    maps (relu between them, none after the last) through width
    `inner_width`; it requires in_dim == out_dim so the skip connection is
    well formed. A plain layer keeps the defaults of those two unused fields,
    so a network has one spec list and one FPNV form.
    """

    kind: str
    in_dim: int
    out_dim: int
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
        elif (self.inner_width, self.inner_layers) != (0, 2):
            raise ShapeError(f"{self.kind} layer needs the default inner_width 0 and "
                             "inner_layers 2")

    def maps(self):
        """(in width, out width, relu after) of each affine map, input first, lazily."""
        if self.kind != "residual":
            return iter([(self.in_dim, self.out_dim, self.kind == "linear_relu")])
        dims = chain([self.in_dim], repeat(self.inner_width, self.inner_layers - 1),
                     [self.out_dim])
        return ((a, b, i < self.inner_layers - 1) for i, (a, b) in enumerate(pairwise(dims)))


def _check_chain(a: LayerSpec, b: LayerSpec):
    if a.out_dim != b.in_dim:
        raise ShapeError(f"layer dims do not chain: {a.out_dim} then {b.in_dim}")


class Network:
    """A chain of LayerSpec layers ending in a linear classifier.

    All parameters live in one contiguous float64 vector, `values`: per
    layer, each affine map's weight (out width, in width), then its bias.
    The kernels read the maps through reshaped views of `values`, so a write
    through a view shows up in the vector. The final layer's out_dim is the
    class count; training minimizes mean softmax cross-entropy of the logits.
    """

    def __init__(self, specs):
        specs = tuple(specs)
        if not specs:
            raise ShapeError("network needs at least one layer")
        for a, b in zip(specs, specs[1:]):
            _check_chain(a, b)
        self.specs = specs
        self.values = np.zeros(sum(b * (a + 1) for spec in specs
                                   for a, b, _ in spec.maps()))
        # per layer, each map's (weight, bias, relu after, offset of the weight
        # in `values`); its bias follows the weight
        self._maps = []
        offset = 0
        for spec in specs:
            maps = []
            for a, b, relu in spec.maps():
                mid = offset + a * b
                maps.append((self.values[offset:mid].reshape(b, a),
                             self.values[mid:mid + b], relu, offset))
                offset = mid + b
            self._maps.append(maps)

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    @property
    def num_classes(self) -> int:
        return self.specs[-1].out_dim

    def _layer_maps(self, layer: int):
        if not 1 <= layer <= self.num_layers:
            raise ShapeError(f"layer index {layer} out of range 1..{self.num_layers}")
        return self._maps[layer - 1]

    def layer_slice(self, layer: int) -> slice:
        """The span of a 1-based layer's parameters in `values`."""
        maps = self._layer_maps(layer)
        w, b, _, lo = maps[-1]
        return slice(maps[0][3], lo + w.size + b.size)

    def interface_weight(self, layer: int) -> np.ndarray:
        """The weight matrix consuming a 1-based layer's inputs, a view of
        `values`; for a residual block, its first inner weight."""
        return self._layer_maps(layer)[0][0]

    def init_random(self, seed: int = 0) -> "Network":
        """Uniform weights in +-1/sqrt(fan_in); biases zero. Deterministic."""
        rng = np.random.default_rng(seed)
        for maps in self._maps:
            for w, b, _, _ in maps:
                bound = 1.0 / np.sqrt(w.shape[1])
                w[...] = rng.uniform(-bound, bound, size=w.shape)
                b[...] = 0.0
        return self

    def flatten(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.values.copy()

    @classmethod
    def from_vector(cls, specs, values) -> "Network":
        """A new network of `specs` holding a copy of the parameter vector `values`."""
        net = cls(specs)
        if np.shape(values) != net.values.shape:
            raise ShapeError(f"parameter vector must be ({net.values.size},), "
                             f"got {np.shape(values)}")
        net.values[...] = values
        return net

    def _check_batch(self, x, layer: int = 1):
        """x as float64 rows of the input width of a 1-based layer."""
        x = np.asarray(x, dtype=np.float64)
        width = self.specs[layer - 1].in_dim
        if x.ndim != 2 or x.shape[1] != width:
            raise ShapeError(f"batch must be (n, {width}), got {np.shape(x)}")
        return x

    def _layer_forward(self, idx, h, keep_cache):
        """Output of one layer, and if asked its cache: each map's input, then
        the last map's output (relu, where applied, is done in place; backward
        needs only its > 0 mask, which relu leaves unchanged)."""
        g, inputs = h, []
        for w, b, relu, _ in self._maps[idx]:
            inputs.append(g)
            g = g @ w.T
            g += b
            if relu:
                np.maximum(g, 0.0, out=g)
        out = h + g if self.specs[idx].kind == "residual" else g
        return out, (inputs + [g] if keep_cache else None)

    def forward(self, x):
        """The logits of the rows of x."""
        h = self._check_batch(x)
        for idx in range(self.num_layers):
            h = _finite(self._layer_forward(idx, h, keep_cache=False)[0], idx)
        return h

    def layer_outputs(self, layer: int, h, batch_size: int):
        """Output of a 1-based layer on the rows of h, batch_size rows at a time.

        The blocks fill one preallocated array. Each block meets the gemm
        shapes that `forward` meets on the same batch, so the rows match that
        layer's output inside `forward` bit for bit, and a non-finite output
        raises the NumericError `forward` raises for that layer.
        """
        self._layer_maps(layer)  # the range check
        h = self._check_batch(h, layer)
        out = np.empty((len(h), self.specs[layer - 1].out_dim))
        for lo in range(0, len(h), batch_size):
            out[lo:lo + batch_size] = self._layer_forward(
                layer - 1, h[lo:lo + batch_size], keep_cache=False)[0]
        return _finite(out, layer - 1)

    def loss_and_grad(self, x, labels):
        """Mean softmax cross-entropy and its gradient as a flat array.

        The gradient is laid out like `values`. labels holds one class id per
        row of x, each below the classifier's class count (sgd_epochs checks
        the range once per call).
        """
        h = self._check_batch(x)
        labels = np.asarray(labels, dtype=int)
        n = h.shape[0]
        if labels.shape != (n,):
            raise ShapeError(f"labels must be ({n},) class ids, got {labels.shape}")
        caches = []
        for idx in range(self.num_layers):
            h, cache = self._layer_forward(idx, h, keep_cache=True)
            caches.append(cache)
            _finite(h, idx)
        logits = h
        z = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(z)
        sums = expz.sum(axis=1, keepdims=True)
        rows = np.arange(n)
        loss = float((np.log(sums[:, 0]) - z[rows, labels]).sum()) / n
        if not math.isfinite(loss):
            raise NumericError("loss is not finite")
        expz /= sums
        expz[rows, labels] -= 1.0
        expz /= n
        g = expz
        grad = np.empty(self.values.size)
        for idx in range(self.num_layers - 1, -1, -1):
            g = self._layer_backward(idx, g, caches[idx], grad, input_grad=idx > 0)
        return loss, grad

    def _layer_backward(self, idx, g_out, cache, grad, input_grad):
        """Write one layer's parameter gradients into grad.

        Returns the gradient of the layer's input if asked, else None.
        """
        maps = self._maps[idx]
        g = g_out
        for i in range(len(maps) - 1, -1, -1):
            w, b, relu, lo = maps[i]
            if relu:
                g = g * (cache[i + 1] > 0)
            mid = lo + w.size
            np.matmul(g.T, cache[i], out=grad[lo:mid].reshape(w.shape))
            g.sum(axis=0, out=grad[mid:mid + b.size])
            if i > 0 or input_grad:
                g = g @ w
        if not input_grad:
            return None
        return g_out + g if self.specs[idx].kind == "residual" else g


def _finite(h, idx):
    if not np.isfinite(h).all():
        raise NumericError(f"non-finite activation leaving layer {idx + 1}")
    return h


def sgd_epochs(net: Network, x, labels, epochs: int, lr: float = 0.01,
               momentum: float = 0.5, batch_size: int = 64, seed: int = 0) -> Network:
    """Train in place with mini-batch SGD and classical momentum.

    Velocity starts at zero on every call: v <- momentum*v + g, then
    theta <- theta - lr*v. Each epoch reshuffles with the generator seeded
    once per call, so the whole batch schedule is a pure function of `seed`.
    Each minibatch is one loss_and_grad call. labels holds one class id per
    row of x, each below the classifier's class count. epochs == 0 returns
    the network untouched.
    """
    x = net._check_batch(x)
    labels = np.asarray(labels, dtype=int)
    if len(x) == 0:
        raise ShapeError("cannot train on an empty dataset")
    if labels.shape != (len(x),):
        raise ShapeError(f"labels must be ({len(x)},) class ids, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= net.num_classes:
        raise ShapeError(f"labels out of range 0..{net.num_classes - 1}")
    if epochs < 0:
        raise ShapeError("epochs must be non-negative")
    rng = np.random.default_rng(seed)
    velocity = np.zeros(net.values.size)
    step = np.empty(net.values.size)
    for _ in range(epochs):
        perm = rng.permutation(len(x))
        for lo in range(0, len(x), batch_size):
            idx = perm[lo:lo + batch_size]
            _, grad = net.loss_and_grad(x[idx], labels[idx])
            velocity *= momentum
            velocity += grad
            np.multiply(velocity, -lr, out=step)
            net.values += step
    return net


def save_params(net: Network, path) -> None:
    """Write a network's specs and parameters as an FPNV file (see `fedlens.dumps`)."""
    blob = FPNV_MAGIC + struct.pack("<HI", FPNV_VERSION, net.num_layers)
    for spec in net.specs:
        blob += FPNV_LAYER.pack(LAYER_KINDS.index(spec.kind), spec.in_dim, spec.out_dim,
                                spec.inner_width, spec.inner_layers)
    # joined from the vector's own buffer on a little-endian host: one copy
    Path(path).write_bytes(b"".join([blob, net.values.astype("<f8", copy=False)]))


def load_params(path) -> Network:
    """Read a network from an FPNV file. A layer header that makes no LayerSpec
    or breaks the chain is a FormatError at its offset; the file's length is
    checked against the specs before anything is allocated."""
    data = Path(path).read_bytes()
    if len(data) < 10:
        raise FormatError(f"{path}: truncated header at offset 0")
    if data[:4] != FPNV_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at offset 0")
    version, count = struct.unpack_from("<HI", data, 4)
    if version != FPNV_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    if not 0 < count <= (len(data) - 10) // FPNV_LAYER.size:
        raise FormatError(f"{path}: layer count {count} does not fit the file at offset 6")
    pos = 10
    specs = []
    for _ in range(count):
        code, *dims = FPNV_LAYER.unpack_from(data, pos)
        try:
            spec = LayerSpec(LAYER_KINDS[code] if code < len(LAYER_KINDS) else code, *dims)
            if specs:
                _check_chain(specs[-1], spec)
        except ShapeError as exc:
            raise FormatError(f"{path}: {exc} at offset {pos}") from None
        specs.append(spec)
        pos += FPNV_LAYER.size
    # a map holds two values or more, so this stops within the file's length
    end = pos
    for spec in specs:
        for a, b, _ in spec.maps():
            end += 8 * b * (a + 1)
            if end > len(data):
                raise FormatError(f"{path}: truncated parameter vector at offset {len(data)}")
    if end < len(data):
        raise FormatError(f"{path}: {len(data) - end} trailing bytes at offset {end}")
    values = np.frombuffer(data, dtype="<f8", offset=pos)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # snapshots are written from finite runs, so this is a damaged payload
        raise FormatError(f"{path}: non-finite parameter value at offset {pos + 8 * int(bad[0])}")
    return Network.from_vector(specs, values)


def mlp_specs(input_dim: int, hidden, num_classes: int, residual: bool = False,
              residual_width: int = 0, residual_inner: int = 2):
    """Layer specs for an MLP: ReLU hidden layers then a linear classifier.

    With residual=True, hidden layers whose input and output widths match
    become residual blocks (inner width defaults to the layer width).
    """
    dims = [input_dim] + list(hidden) + [num_classes]
    specs = []
    for i in range(len(hidden)):
        a, b = dims[i], dims[i + 1]
        if residual and a == b:
            specs.append(LayerSpec("residual", a, b,
                                   inner_width=residual_width or b,
                                   inner_layers=residual_inner))
        else:
            specs.append(LayerSpec("linear_relu", a, b))
    specs.append(LayerSpec("linear", dims[-2], dims[-1]))
    return specs
