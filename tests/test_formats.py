"""Damaged binary files: every truncation and every single-bit flip of a
small FPNV parameter file or FPLF feature dump either loads or raises a
FormatError naming the file, never another exception."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedlens.dumps import FPLF_HEADER, read_features, write_features
from fedlens.errors import FormatError
from fedlens.metrics import FeatureMatrix
from fedlens.nn import (FPNV_MAGIC, FPNV_VERSION, Network, load_params, mlp_specs,
                        save_params)


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
    # byte 100 is the ndims of the classifier weight; bit 2 turns 2 into 6,
    # so float payload bytes are read as dims whose product overflows int64
    blob = bytearray(fpnv_blob(mlp_specs(3, (2,), 2), 0))
    assert blob[100] == 2
    blob[100] ^= 1 << 2
    path = tmp_path / "model.fpnv"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="truncated"):
        load_params(path)


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
    # the header is 10 bytes and the first tensor's header 13; the
    # classifier bias is the file's last tensor
    at = len(blob) - 8 if where == "classifier bias" else 10 + 13
    blob[at:at + 8] = np.array([value], dtype="<f8").tobytes()
    path = tmp_path / "model.fpnv"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"^{path}: non-finite parameter value "
                                          f"at offset {at}$"):
        load_params(path)


def fpnv_of(tensors):
    """An FPNV file of zero-valued tensors, each given as (layer, shape)."""
    blob = FPNV_MAGIC + struct.pack("<HI", FPNV_VERSION, len(tensors))
    for layer, shape in tensors:
        blob += struct.pack(f"<IB{len(shape)}I", layer, len(shape), *shape)
        blob += bytes(8 * math.prod(shape))
    return blob


# a 3 -> 2 first layer; its weight's header is at offset 10, its bias's at 71
# and the next tensor's at 96
FIRST = [(1, (2, 3)), (1, (2,))]


@pytest.mark.parametrize("tensors, at", [
    ([(7, (2, 3)), (7, (2,))], 10),                        # no layer 1
    (FIRST + [(3, (2, 2)), (3, (2,))], 96),                # layer 2 skipped
    (FIRST + [(2, (2, 4)), (2, (2,))], 96),                # widths do not link
    ([(1, (2, 3)), (1, (3,))], 71),                        # bias of the wrong width
    ([(1, (2,)), (1, (2,))], 10),                          # 1-D first tensor
    ([(1, (2, 3)), (1, (2,)), (1, (4, 2)), (1, (4,))], 96),  # two maps, 3 -> 4
    ([(1, (2, 3))], 10),                                   # weight without a bias
    ([(1, (0, 3)), (1, (0,))], 10),                        # empty map
], ids=["layer_7", "gap", "chain_width", "bias_width", "no_weight", "no_return",
        "no_bias", "empty"])
def test_bad_fpnv_layout_names_file_and_header_offset(tmp_path, tensors, at):
    path = tmp_path / "model.fpnv"
    path.write_bytes(fpnv_of(tensors))
    with pytest.raises(FormatError, match=f"^{path}: .* at offset {at}$"):
        load_params(path)


def test_every_network_layout_loads(tmp_path):
    # the chain rules accept what save_params writes, residual blocks included
    path = tmp_path / "model.fpnv"
    for specs in (mlp_specs(3, (4, 4), 2, residual=True, residual_width=5,
                            residual_inner=3), mlp_specs(3, (), 2)):
        net = Network(specs).init_random(seed=1)
        save_params(net, path)
        layout, values = load_params(path)
        assert layout == net.layout and np.array_equal(values, net.values)
