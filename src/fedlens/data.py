"""Client datasets: synthetic covariate-shifted federations and IDX ingestion.

Every client shares one set of class anchor points; client m applies its own
affine distortion (orthogonal rotation, per-coordinate scaling, offset) to
anchor_c + sigma * gaussian draws. Identical distortions give an i.i.d.
control federation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .metrics import class_ids
from .seeds import derive_seed

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class DomainSpec:
    """Per-client generative recipe for class-conditional gaussian data.

    A sample of class c is scaling * (rotation @ (mean_c + sigma * g)) + offset
    with g standard normal.
    """

    class_means: np.ndarray  # (classes, input_dim)
    within_class_scale: float
    rotation: np.ndarray     # (input_dim, input_dim), orthogonal
    scaling: np.ndarray      # (input_dim,)
    offset: np.ndarray       # (input_dim,)

    def transform(self, v: np.ndarray) -> np.ndarray:
        """Apply the domain distortion to rows of v."""
        return (v @ self.rotation.T) * self.scaling + self.offset


@dataclass
class ClientDataset:
    """One client's train/test split; labels are integer class ids."""

    client_id: int
    train_x: np.ndarray
    train_labels: np.ndarray
    test_x: np.ndarray
    test_labels: np.ndarray

    @property
    def n_train(self) -> int:
        return len(self.train_x)


def haar_rotation(n: int, rng) -> np.ndarray:
    """Random orthogonal matrix from the QR of a gaussian matrix."""
    m = rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def make_domain_specs(num_clients: int, num_classes: int, input_dim: int, seed: int,
                      anchor_scale: float = 3.0, within_class_scale: float = 1.0,
                      scale_range=(1.0, 1.0), offset_scale: float = 0.0,
                      rotation: str = "random"):
    """Shared anchors plus per-client distortions.

    rotation "identity" with scale_range (1, 1) and offset_scale 0 makes all
    clients draw from the same distribution.
    """
    anchors = np.random.default_rng(derive_seed(seed, "anchors")).normal(
        size=(num_classes, input_dim)) * anchor_scale
    lo, hi = scale_range
    hi = max(lo, hi)  # lo when equal: numpy refuses 0.0 to -0.0, a signed width
    specs = []
    for m in range(num_clients):
        rng = np.random.default_rng(derive_seed(seed, "domain", m))
        rot = haar_rotation(input_dim, rng) if rotation == "random" else np.eye(input_dim)
        scaling = rng.uniform(lo, hi, size=input_dim)
        offset = rng.normal(size=input_dim) * offset_scale
        specs.append(DomainSpec(
            class_means=anchors, within_class_scale=within_class_scale, rotation=rot,
            scaling=scaling, offset=offset))
    return specs


def _draw_split(spec: DomainSpec, count: int, rng):
    """count shuffled rows with balanced, noise-free labels: every class gets
    count // classes rows, and the first count % classes classes one more."""
    c, dim = spec.class_means.shape
    labels = np.sort(np.arange(count) % c)
    g = rng.normal(size=(count, dim))
    x = spec.transform(spec.class_means[labels] + spec.within_class_scale * g)
    perm = rng.permutation(count)
    return x[perm], labels[perm]


def generate_federation_data(specs, n_train: int, n_test: int, seed: int):
    """Draw deterministic train/test splits for every client."""
    datasets = []
    for m, sp in enumerate(specs):
        rng = np.random.default_rng(derive_seed(seed, "samples", m))
        train = _draw_split(sp, n_train, rng)
        test = _draw_split(sp, n_test, rng)
        datasets.append(ClientDataset(m, *train, *test))
    return datasets


def balanced_eval_subset(ds: ClientDataset, per_class: int, seed: int):
    """(x, labels) of exactly per_class train rows of every class the client has.

    A class with fewer rows is a ConfigError on metrics.eval_per_class; only
    IDX data can have one, since validate_config bounds synthetic configs.
    """
    rng = np.random.default_rng(seed)
    picks = []
    for c in class_ids(ds.train_labels):
        idx = np.flatnonzero(ds.train_labels == c)
        if len(idx) < per_class:
            raise ConfigError(f"client {ds.client_id} has {len(idx)} train rows of class "
                              f"{c}, fewer than {per_class}", field="metrics.eval_per_class")
        picks.append(rng.permutation(idx)[:per_class])
    idx = np.concatenate(picks)
    idx = idx[rng.permutation(len(idx))]
    return ds.train_x[idx], ds.train_labels[idx]


def _read_idx(path, expect_magic, kind):
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise FormatError(f"{path}: truncated header at offset 0")
    magic, = struct.unpack_from(">I", data, 0)
    if magic != expect_magic:
        raise FormatError(
            f"{path}: bad {kind} magic 0x{magic:08x} at offset 0 "
            f"(expected 0x{expect_magic:08x})")
    # the magic's low byte is the number of dimensions, each a u32
    head = 4 + 4 * (magic & 0xFF)
    if len(data) < head:
        raise FormatError(f"{path}: truncated dimension header at offset {len(data)}")
    dims = struct.unpack_from(f">{magic & 0xFF}I", data, 4)
    need = head + math.prod(dims)
    if len(data) != need:
        raise FormatError(
            f"{path}: expected {need} bytes, found mismatch at offset "
            f"{min(len(data), need)}")
    return np.frombuffer(data, dtype=np.uint8, offset=head).reshape(dims)


def load_idx(images_path, labels_path):
    """Big-endian IDX image/label files as (pixels / 255, integer labels)."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "images")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "labels")
    if len(images) != len(labels):
        raise FormatError(
            f"{images_path}: {len(images)} images but {len(labels)} labels")
    if len(labels) == 0:
        raise FormatError(f"{images_path}: empty dataset")
    return images.reshape(len(images), -1) / 255.0, labels.astype(int)
