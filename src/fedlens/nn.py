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
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError, ShapeError

LAYER_KINDS = ("linear", "linear_relu", "residual")

FPNV_MAGIC = b"FPNV"
FPNV_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a plain linear map, linear + relu, or a residual block.

    Every layer is a chain of affine maps x @ W.T + b (see `maps`). A
    residual block computes x + f(x) where f is a chain of `inner_layers`
    maps (relu between them, none after the last) through width
    `inner_width`; it requires in_dim == out_dim so the skip connection is
    well formed.
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

    def maps(self):
        """(in width, out width, relu after) of each affine map, input first."""
        if self.kind != "residual":
            return [(self.in_dim, self.out_dim, self.kind == "linear_relu")]
        dims = [self.in_dim] + [self.inner_width] * (self.inner_layers - 1) + [self.out_dim]
        return [(a, b, i < self.inner_layers - 1)
                for i, (a, b) in enumerate(zip(dims, dims[1:]))]


@dataclass(frozen=True, slots=True)
class LayoutEntry:
    """Position of one parameter tensor inside a flat vector."""

    layer: int  # 1-based layer index
    shape: tuple
    offset: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class Layout(tuple):
    """Where each parameter tensor of one architecture sits in a flat vector.

    A tuple of LayoutEntry in vector order. Each layer's span and its
    interface weight's entry are found once, when the layout is built.
    """

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        self._spans, self._weights = {}, {}
        for e in self:
            start = self._spans[e.layer].start if e.layer in self._spans else e.offset
            self._spans[e.layer] = slice(start, e.offset + e.size)
            if len(e.shape) == 2:
                self._weights.setdefault(e.layer, e)
        return self

    def layer_slice(self, layer: int) -> slice:
        """Contiguous span of all tensors belonging to a 1-based layer index."""
        if layer not in self._spans:
            raise ShapeError(f"no parameters for layer {layer}")
        return self._spans[layer]

    def interface_weight(self, values, layer: int) -> np.ndarray:
        """First 2-D tensor of a 1-based layer in `values`, the matrix consuming
        its inputs; for a residual block, its first inner weight."""
        e = self._weights.get(layer)
        if e is None:
            raise ShapeError(f"no weight matrix for layer {layer}")
        return values[e.offset:e.offset + e.size].reshape(e.shape)


class Network:
    """A chain of LayerSpec layers ending in a linear classifier.

    All parameters live in one contiguous float64 vector, `values`, laid out
    as `layout` says: per layer, each affine map's weight, then its bias.
    The kernels read the maps through reshaped views of `values`, so a write
    through a view shows up in the vector. The final layer's out_dim is the
    class count; training minimizes mean softmax cross-entropy of the logits.
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
        self.values = np.zeros(sum(b * (a + 1) for spec in specs
                                   for a, b, _ in spec.maps()))
        # per layer, each map's (weight, bias, relu after, offset of the weight
        # in `values`); its bias follows the weight
        self._maps = []
        entries, offset = [], 0
        for layer, spec in enumerate(specs, start=1):
            maps = []
            for a, b, relu in spec.maps():
                mid = offset + a * b
                maps.append((self.values[offset:mid].reshape(b, a),
                             self.values[mid:mid + b], relu, offset))
                entries += [LayoutEntry(layer, (b, a), offset), LayoutEntry(layer, (b,), mid)]
                offset = mid + b
            self._maps.append(maps)
        self.layout = Layout(entries)

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    @property
    def num_classes(self) -> int:
        return self.specs[-1].out_dim

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
        if not 1 <= layer <= self.num_layers:
            raise ShapeError(f"layer index {layer} out of range 1..{self.num_layers}")
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
    """Write a network's layout and parameter vector in the FPNV binary format."""
    blob = bytearray()
    blob += FPNV_MAGIC
    blob += struct.pack("<H", FPNV_VERSION)
    blob += struct.pack("<I", len(net.layout))
    for entry in net.layout:
        blob += struct.pack("<IB", entry.layer, len(entry.shape))
        for d in entry.shape:
            blob += struct.pack("<I", d)
        chunk = net.values[entry.offset:entry.offset + entry.size]
        blob += chunk.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_params(path):
    """Read (layout, parameter vector) from the FPNV binary format.

    The tensors must lay out a network: layers 1..L in order, each a chain
    of (2-D weight, 1-D bias) maps whose widths link up across the file,
    and a layer of several maps ends at its input width. Anything else is a
    FormatError at the offending tensor's header.
    """
    data = Path(path).read_bytes()
    if len(data) < 10:
        raise FormatError(f"{path}: truncated header at offset 0")
    if data[:4] != FPNV_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at offset 0")
    version, = struct.unpack_from("<H", data, 4)
    if version != FPNV_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    count, = struct.unpack_from("<I", data, 6)
    if count == 0:
        raise FormatError(f"{path}: no parameter tensors at offset 6")
    pos = 10
    entries = []
    chunks = []
    offset = 0
    # the layer being read, its input width, its maps so far, the running
    # width, and where the header of the last weight read starts
    current, layer_in, maps, width, weight_at = 0, 0, 0, None, 0

    def end_layer():
        if maps > 1 and width != layer_in:
            raise FormatError(f"{path}: layer {current} ends at width {width}, not its "
                              f"input width {layer_in}, at offset {weight_at}")

    for index in range(count):
        head = pos
        if pos + 5 > len(data):
            raise FormatError(f"{path}: truncated tensor header at offset {pos}")
        layer, ndims = struct.unpack_from("<IB", data, pos)
        pos += 5
        if pos + 4 * ndims > len(data):
            raise FormatError(f"{path}: truncated dims at offset {pos}")
        shape = tuple(int(d) for d in struct.unpack_from(f"<{ndims}I", data, pos))
        pos += 4 * ndims
        size = math.prod(shape)
        nbytes = size * 8
        if pos + nbytes > len(data):
            raise FormatError(f"{path}: truncated tensor data at offset {pos}")
        if index % 2:
            want = f"layer {current}'s bias of shape ({width},)"
            fits = layer == current and shape == (width,)
        else:
            want = (f"a layer {current} or {current + 1} weight taking {width} inputs"
                    if current else "a layer 1 weight")
            if layer == current + 1:
                end_layer()
                current, maps = layer, 0
            fits = (layer == current and ndims == 2 and 0 not in shape
                    and (width is None or shape[1] == width))
            if fits:
                layer_in = shape[1] if maps == 0 else layer_in
                maps, width, weight_at = maps + 1, shape[0], head
        if not fits:
            raise FormatError(f"{path}: expected {want}, got layer {layer} shape "
                              f"{shape} at offset {head}")
        chunk = np.frombuffer(data, dtype="<f8", count=size, offset=pos)
        bad = np.flatnonzero(~np.isfinite(chunk))
        if bad.size:
            # snapshots are written from finite runs, so this is a damaged payload
            raise FormatError(f"{path}: non-finite parameter value at offset "
                              f"{pos + 8 * int(bad[0])}")
        chunks.append(chunk)
        entries.append(LayoutEntry(layer=layer, shape=shape, offset=offset))
        offset += size
        pos += nbytes
    if count % 2:
        raise FormatError(f"{path}: weight without a bias at offset {weight_at}")
    end_layer()
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes at offset {pos}")
    values = np.concatenate(chunks, dtype=np.float64)
    return Layout(entries), values


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
