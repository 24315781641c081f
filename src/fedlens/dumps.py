"""Binary feature dumps and offline metric recomputation.

A feature dump file holds one captured feature matrix: magic "FPLF",
version u16 (2), sample count u32, feature dim u32, layer u16, phase u8
(0 pre, 1 post), round u16, then row-major float64 values and u16 labels.
A model snapshot holds magic "FPNV", version u16 (2), layer count u32, per
layer a kind u8 (its index in `nn.LAYER_KINDS`) and in_dim, out_dim,
inner_width and inner_layers u32, then the float64 parameter vector. Both
are little-endian, and only version 2 of each is read. The owning client
is encoded in the file name. The values are the run's own, so the records
rebuilt from its dumps equal its records bit for bit.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

from .analysis import MetricRecord, relative_change_records
from .errors import FormatError, NumericError
from .metrics import FeatureMatrix, tap_pair_records
from .nn import Network, load_params, save_params

FPLF_MAGIC = b"FPLF"
FPLF_VERSION = 2
FPLF_HEADER = struct.Struct("<4sHIIHBH")
U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF
_PHASE_CODE = {"pre": 0, "post": 1}
_PHASE_NAME = {0: "pre", 1: "post"}

_FEATURE_RE = re.compile(r"features_r(\d+)_c(\d+)_l(\d+)_(pre|post)\.fplf$")
_MODEL_RE = re.compile(r"model_r(\d+)_c(\d+)_(pre|post)\.fpnv$")


def feature_filename(round_index: int, client: int, layer: int, phase: str) -> str:
    return f"features_r{round_index:05d}_c{client}_l{layer}_{phase}.fplf"


def model_filename(round_index: int, client: int, phase: str) -> str:
    return f"model_r{round_index:05d}_c{client}_{phase}.fpnv"


def write_features(path, fm: FeatureMatrix) -> None:
    if fm.phase not in _PHASE_CODE:
        raise FormatError(f"cannot dump phase {fm.phase!r}")
    if fm.labels.size and (fm.labels.min() < 0 or fm.labels.max() > U16_MAX):
        raise FormatError("labels do not fit in u16")
    for name, value, top in (("n", fm.n, U32_MAX), ("dim", fm.dim, U32_MAX),
                             ("layer", fm.layer, U16_MAX), ("round", fm.round, U16_MAX)):
        if not 0 <= value <= top:
            raise FormatError(f"{name} {value} does not fit the FPLF header range 0..{top}")
    header = FPLF_HEADER.pack(FPLF_MAGIC, FPLF_VERSION, fm.n, fm.dim,
                              fm.layer, _PHASE_CODE[fm.phase], fm.round)
    payload = fm.values.astype("<f8").tobytes() + fm.labels.astype("<u2").tobytes()
    Path(path).write_bytes(header + payload)


def read_features(path, client: int = -1) -> FeatureMatrix:
    data = Path(path).read_bytes()
    if len(data) < FPLF_HEADER.size:
        raise FormatError(f"{path}: truncated header at offset 0")
    magic, version, n, dim, layer, phase, round_index = FPLF_HEADER.unpack_from(data, 0)
    if magic != FPLF_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    if version != FPLF_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    if phase not in _PHASE_NAME:
        raise FormatError(f"{path}: unknown phase code {phase} at offset 16")
    need = FPLF_HEADER.size + n * dim * 8 + n * 2
    if len(data) != need:
        raise FormatError(
            f"{path}: expected {need} bytes, found mismatch at offset "
            f"{min(len(data), need)}")
    values = np.frombuffer(data, dtype="<f8", count=n * dim, offset=FPLF_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # dumps are written from finite taps, so this is a damaged payload
        raise FormatError(f"{path}: non-finite feature value at offset "
                          f"{FPLF_HEADER.size + 8 * int(bad[0])}")
    labels = np.frombuffer(data, dtype="<u2", count=n,
                           offset=FPLF_HEADER.size + n * dim * 8).astype(int)
    return FeatureMatrix(values.reshape(n, dim), labels, layer=layer,
                         phase=_PHASE_NAME[phase], round=round_index, client=client)


def write_round_dumps(dump_dir, round_index: int, client: int, phase: str,
                      fm: FeatureMatrix = None, model: Network = None) -> None:
    """Persist part of one capture: a tapped feature matrix, a model snapshot, or both."""
    root = Path(dump_dir)
    root.mkdir(parents=True, exist_ok=True)
    if fm is not None:
        write_features(root / feature_filename(round_index, client, fm.layer, phase), fm)
    if model is not None:
        save_params(model, root / model_filename(round_index, client, phase))


# a record's finite check reports overflow; numpy's warnings would only repeat it
@np.errstate(all="ignore")
def metrics_from_dumps(dump_dir):
    """Recompute feature metrics from dump files.

    Pre/post captures pair by (round, client, layer); unpaired files produce a
    warning and are skipped. Alignment is recomputed only where matching model
    snapshots exist. Returns (records, warnings).
    """
    root = Path(dump_dir)
    paths = {}
    for path in sorted(root.glob("*.fplf")):
        m = _FEATURE_RE.match(path.name)
        if m:
            paths[(int(m.group(1)), int(m.group(2)), int(m.group(3)), m.group(4))] = path
    models = {}
    for path in sorted(root.glob("*.fpnv")):
        m = _MODEL_RE.match(path.name)
        if m:
            models[(int(m.group(1)), int(m.group(2)), m.group(3))] = path

    records = []
    warnings = []
    group = None
    for rnd, client, layer in sorted({key[:3] for key in paths}):
        if (rnd, client) != group:
            # a (round, client)'s layers come one after another, so its two
            # snapshots are read here once and dropped when the next comes up
            group = (rnd, client)
            snapshots = {}
            for phase in ("pre", "post"):
                path = models.pop(group + (phase,), None)
                if path is not None:
                    snapshots[phase] = (path, load_params(path))
            pre, post = snapshots.get("pre"), snapshots.get("post")
            if pre and post and pre[1].specs != post[1].specs:
                raise FormatError(f"{post[0]}: layer specs differ from {pre[0]}")
        # one pair in memory at a time; an unpaired file is still read and checked
        pair = {}
        for phase in ("pre", "post"):
            path = paths.get((rnd, client, layer, phase))
            if path is None:
                continue
            fm = read_features(path, client=client)
            if (fm.round, fm.layer, fm.phase) != (rnd, layer, phase):
                raise FormatError(f"{path}: header disagrees with file name")
            pair[phase] = fm
        if len(pair) < 2:
            missing = "post" if "pre" in pair else "pre"
            warnings.append(
                f"round {rnd} client {client} layer {layer}: missing {missing} dump, skipped")
            continue
        weights = []
        for fm in pair.values():
            weight = None
            if fm.phase in snapshots:
                snapshot, net = snapshots[fm.phase]
                weight = net.interface_weight(layer + 1) if layer < net.num_layers else None
                if weight is None or weight.shape[1] != fm.dim:
                    raise FormatError(f"{snapshot}: no layer {layer + 1} weight taking "
                                      f"the {fm.dim} features of "
                                      f"{paths[(rnd, client, layer, fm.phase)]}")
            weights.append(weight)
        try:
            records.extend(tap_pair_records((pair["pre"], pair["post"]), weights))
        except NumericError as exc:
            # a run dumps only taps whose records are finite: a file is damaged
            raise FormatError(f"{paths[(rnd, client, layer, 'pre')]} or "
                              f"{paths[(rnd, client, layer, 'post')]}: {exc}") from None
    for path in models.values():
        load_params(path)  # a snapshot without feature dumps is still checked
    records.extend(relative_change_records(records))
    records.sort(key=MetricRecord.sort_key)
    return records, warnings
