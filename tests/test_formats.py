"""Damaged binary files: every truncation and every single-bit flip of a
small FPNV parameter file or FPLF feature dump either loads or raises a
FormatError naming the file, never another exception."""

import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedlens.dumps import FPLF_HEADER, U32_MAX, read_features, write_features
from fedlens.errors import FormatError
from fedlens.metrics import FeatureMatrix
from fedlens.nn import (FPNV_LAYER, FPNV_MAGIC, FPNV_VERSION, Network, load_params,
                        mlp_specs, save_params)


def damaged(blob: bytes):
    """Every proper prefix of blob, then blob with each single bit flipped."""
    for cut in range(len(blob)):
        yield blob[:cut]
    for i in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            yield bytes(flipped)


def assert_loads_or_format_error(load, blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.bin"
        for variant in damaged(blob):
            path.write_bytes(variant)
            try:
                load(path)
            except FormatError as exc:
                assert str(path) in str(exc)


def fpnv_blob(specs, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.fpnv"
        save_params(Network(specs).init_random(seed=seed), path)
        return path.read_bytes()


def fplf_blob(n, dim, seed):
    rng = np.random.default_rng(seed)
    fm = FeatureMatrix(rng.normal(size=(n, dim)), rng.integers(0, 4, size=n),
                       layer=2, phase="post", round=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.fplf"
        write_features(path, fm)
        return path.read_bytes()


@settings(max_examples=15, deadline=None)
@given(input_dim=st.integers(1, 3), hidden=st.lists(st.integers(1, 3), max_size=2),
       num_classes=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(input_dim=3, hidden=[2], num_classes=2, seed=0)
def test_damaged_fpnv_loads_or_raises_format_error(input_dim, hidden, num_classes, seed):
    blob = fpnv_blob(mlp_specs(input_dim, hidden, num_classes), seed)
    assert_loads_or_format_error(load_params, blob)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 3), dim=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(n=3, dim=2, seed=0)
def test_damaged_fplf_loads_or_raises_format_error(n, dim, seed):
    assert_loads_or_format_error(read_features, fplf_blob(n, dim, seed))


def test_fpnv_dims_overflowing_int64_are_a_format_error(tmp_path):
    # a one-layer 3 -> 2 network whose header turns into 2**32-1 -> 2**32-1:
    # its parameter count overflows int64, and the length check refuses it
    # before anything is allocated
    blob = bytearray(fpnv_blob(mlp_specs(3, (), 2), 0))
    assert FPNV_LAYER.unpack_from(blob, 10) == (0, 3, 2, 0, 2)
    FPNV_LAYER.pack_into(blob, 10, 0, U32_MAX, U32_MAX, 0, 2)
    path = tmp_path / "model.fpnv"
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"^{path}: truncated parameter vector "
                                              f"at offset {len(blob)}$"):
            load_params(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20   # the error's own bytes
    finally:
        tracemalloc.stop()


def test_non_finite_fplf_payload_names_file_and_offset(tmp_path):
    blob = bytearray(fplf_blob(3, 2, 0))
    at = FPLF_HEADER.size + 8 * 1           # second float64 of the payload
    blob[at:at + 8] = np.array([np.inf], dtype="<f8").tobytes()
    path = tmp_path / "features.fplf"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"non-finite feature value at offset {at}"):
        read_features(path)


def test_fplf_keeps_float64_values_and_refuses_version_1(tmp_path):
    # a value float32 cannot hold, and one it would round
    fm = FeatureMatrix([[1e300, 0.1], [-1e-300, 1.0]], [0, 1], layer=1, round=2)
    path = tmp_path / "features.fplf"
    write_features(path, fm)
    assert read_features(path).values.tobytes() == fm.values.tobytes()
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"^{path}: unsupported version 1 at offset 4$"):
        read_features(path)


@pytest.mark.parametrize("value,where", [(np.nan, "classifier bias"),
                                         (np.inf, "first weight")])
def test_non_finite_fpnv_payload_names_file_and_offset(tmp_path, value, where):
    blob = bytearray(fpnv_blob(mlp_specs(3, (2,), 2), 0))
    # the header is 10 bytes and each of the two layers' 17; the classifier
    # bias ends the file
    at = len(blob) - 8 if where == "classifier bias" else 10 + 2 * 17
    blob[at:at + 8] = np.array([value], dtype="<f8").tobytes()
    path = tmp_path / "model.fpnv"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"^{path}: non-finite parameter value "
                                          f"at offset {at}$"):
        load_params(path)


def fpnv_of(layers, values=0):
    """An FPNV file of the given layer headers, each (kind code, in_dim,
    out_dim, inner_width, inner_layers), then `values` float64 zeros."""
    blob = FPNV_MAGIC + struct.pack("<HI", FPNV_VERSION, len(layers))
    for header in layers:
        blob += FPNV_LAYER.pack(*header)
    return blob + bytes(8 * values)


# a 3 -> 2 linear layer; layer headers sit at offsets 10, 27 and 44
FIRST = (0, 3, 2, 0, 2)


@pytest.mark.parametrize("layers, at, problem", [
    ([(7, 3, 2, 0, 2)], 10, "unknown layer kind 7"),
    ([FIRST, (1, 2, 0, 0, 2)], 27, "layer dimensions must be positive"),
    ([FIRST, (0, 4, 2, 0, 2)], 27, "layer dims do not chain: 2 then 4"),
    ([FIRST, (2, 2, 3, 5, 2)], 27, "residual block needs in_dim == out_dim"),
    ([FIRST, (2, 2, 2, 5, 0), (0, 2, 2, 0, 2)], 27,
     "residual block needs at least one inner layer"),
    ([FIRST, (2, 2, 2, 0, 3)], 27, "residual block needs a positive inner width"),
    # layer 1 of mlp_specs(3, [4], 2) with damaged inner fields
    ([(1, 3, 4, 9, 77), (0, 4, 2, 0, 2)], 10,
     "linear_relu layer needs the default inner_width 0 and inner_layers 2"),
    ([FIRST, (0, 2, 2, 0, 0)], 27,
     "linear layer needs the default inner_width 0 and inner_layers 2"),
], ids=["kind_7", "empty", "chain_width", "no_return", "no_weight", "no_inner_width",
        "plain_inner_fields", "plain_inner_layers"])
def test_bad_fpnv_layout_names_file_and_header_offset(tmp_path, layers, at, problem):
    path = tmp_path / "model.fpnv"
    path.write_bytes(fpnv_of(layers))
    with pytest.raises(FormatError, match=f"^{path}: {problem} at offset {at}$"):
        load_params(path)


@pytest.mark.parametrize("count, values, problem", [
    (0, 0, "layer count 0 does not fit the file at offset 6"),
    (2, 0, "layer count 2 does not fit the file at offset 6"),
    (1, 7, "truncated parameter vector at offset 83"),
    (1, 9, "8 trailing bytes at offset 91"),
], ids=["no_layers", "headers_cut", "values_cut", "trailing"])
def test_fpnv_length_must_match_its_layer_specs(tmp_path, count, values, problem):
    # a 3 -> 2 layer holds 8 values; its file is 10 + 17 + 64 = 91 bytes
    blob = fpnv_of([FIRST], values)
    blob = blob[:6] + struct.pack("<I", count) + blob[10:]
    path = tmp_path / "model.fpnv"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=f"^{path}: {problem}$"):
        load_params(path)


def test_fpnv_block_of_more_maps_than_the_file_holds_stops_at_the_file_end(tmp_path):
    # 2**32 - 1 inner maps of two values each: listing them would not end in
    # reasonable time, and the length check stops at the first past the file
    path = tmp_path / "model.fpnv"
    path.write_bytes(fpnv_of([(2, 1, 1, 1, U32_MAX)], values=100))
    with pytest.raises(FormatError, match=f"^{path}: truncated parameter vector "
                                          f"at offset {10 + 17 + 800}$"):
        load_params(path)


def fpnv_v1(net):
    """The network as a version 1 FPNV file: a (layer, ndims, dims) header
    before each weight and each bias."""
    blob = FPNV_MAGIC + struct.pack("<HI", 1, 2 * sum(len(maps) for maps in net._maps))
    for layer, maps in enumerate(net._maps, start=1):
        for w, b, _, _ in maps:
            for t in (w, b):
                blob += struct.pack(f"<IB{t.ndim}I", layer, t.ndim, *t.shape)
                blob += t.astype("<f8").tobytes()
    return blob


def test_fpnv_refuses_version_1(tmp_path):
    path = tmp_path / "model.fpnv"
    path.write_bytes(fpnv_v1(Network(mlp_specs(3, (2,), 2)).init_random(seed=1)))
    with pytest.raises(FormatError, match=f"^{path}: unsupported version 1 at offset 4$"):
        load_params(path)


def test_every_network_layout_loads(tmp_path):
    # the header checks accept what save_params writes, residual blocks included
    path = tmp_path / "model.fpnv"
    for specs in (mlp_specs(3, (4, 4), 2, residual=True, residual_width=5,
                            residual_inner=3), mlp_specs(3, (), 2)):
        net = Network(specs).init_random(seed=1)
        save_params(net, path)
        loaded = load_params(path)
        assert loaded.specs == net.specs
        assert loaded.values.tobytes() == net.values.tobytes()
        assert path.stat().st_size == 10 + 17 * len(specs) + 8 * net.values.size
