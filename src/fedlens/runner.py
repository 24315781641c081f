"""Turn an ExperimentConfig into datasets, a federation run, and output files."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from .analysis import ACCURACY_CSV, METRICS_CSV, check_dir_path, write_atomic, write_csv
from .config import ExperimentConfig, personalized_layers, render_config
from .data import ClientDataset, generate_federation_data, load_idx, make_domain_specs
from .errors import ConfigError, NumericError
from .fed import client_round_seed, run_federation
from .seeds import derive_seed

MANIFEST = "manifest.txt"
DUMP_SUBDIR = "dumps"
ACCURACY_METRICS = ("train_acc", "test_acc")


def build_datasets(cfg: ExperimentConfig):
    d = cfg.data
    if d.kind == "synthetic":
        specs = make_domain_specs(
            d.clients, d.classes, d.input_dim, seed=cfg.fed.seed,
            anchor_scale=d.anchor_scale, within_class_scale=d.within_class_scale,
            scale_range=(d.scale_min, d.scale_max), offset_scale=d.offset_scale,
            rotation=d.rotation)
        return generate_federation_data(specs, d.train_per_client, d.test_per_client,
                                        seed=cfg.fed.seed)
    root = Path(d.idx_dir)
    datasets = []
    for m in range(d.clients):
        try:
            train, test = (load_idx(root / f"client{m}_{split}_images.idx",
                                    root / f"client{m}_{split}_labels.idx")
                           for split in ("train", "test"))
        except OSError as exc:
            raise ConfigError(f"cannot read client {m}'s IDX files: {exc}",
                              field="data.idx_dir") from None
        datasets.append(ClientDataset(m, *train, *test))
    return datasets


# the finite checks report overflow and divergence; numpy's warnings would
# only repeat it on stderr
@np.errstate(all="ignore")
def execute(cfg: ExperimentConfig, dump_dir=None) -> list:
    """Run one experiment in memory and return its sorted records; file writing
    happens in run_to_dir."""
    d = cfg.data
    datasets = build_datasets(cfg)
    for ds in datasets:
        for x in (ds.train_x, ds.test_x):
            if x.shape[1] != d.input_dim:
                raise ConfigError(
                    f"dataset dim {x.shape[1]} does not match input_dim "
                    f"{d.input_dim}", field="data.input_dim")
            if not np.isfinite(x).all():
                raise NumericError(f"client {ds.client_id} has non-finite data: "
                                   "the data scales overflow float64")
        top = max(ds.train_labels.max(), ds.test_labels.max())
        if top >= d.classes:
            raise ConfigError(f"client {ds.client_id} has label {top}, but classes "
                              f"is {d.classes}", field="data.classes")
    return run_federation(cfg, datasets, dump_dir)


def _render_manifest(cfg: ExperimentConfig) -> str:
    """The canonical config plus the values a run derives from it."""
    f = cfg.fed
    eval_rounds = range(f.eval_cadence, f.rounds + 1, f.eval_cadence)
    lines = [render_config(cfg).rstrip(), "", "# derived values"]
    lines.append(f"# mask = {personalized_layers(f.personalization, cfg.num_layers)[0]}")
    lines.append(f"# eval rounds = {','.join(str(r) for r in eval_rounds)}")
    lines.append(f"# init seed = {derive_seed(f.seed, 'init')}")
    if f.pretrain_epochs > 0:
        lines.append(f"# pretrain seed = {derive_seed(f.seed, 'pretrain')}")
    for m in range(cfg.data.clients):
        lines.append(f"# eval subset seed client {m} = "
                     f"{derive_seed(f.seed, 'evalsubset', m)}")
    for r in range(1, f.rounds + 1):
        for m in range(cfg.data.clients):
            lines.append(f"# train seed client {m} round {r} = "
                         f"{client_round_seed(f.seed, m, r)}")
    return "\n".join(lines) + "\n"


def run_to_dir(cfg: ExperimentConfig) -> Path:
    """Execute and write metrics.csv, accuracy.csv, manifest.txt, and dumps."""
    out_dir = Path(cfg.output.dir)
    dumps = out_dir / DUMP_SUBDIR
    dump_dir = dumps if cfg.output.dump_features or cfg.output.dump_models else None
    # fedlens owns out_dir/dumps: it holds this run's dumps or none, never an
    # earlier run's; a link or a file there is left alone, and refused when
    # the run would write dumps
    if dump_dir and dumps.is_symlink():
        raise ConfigError(f"{dumps} is a link, not a directory", field="output.dir")
    check_dir_path(dump_dir or out_dir, "output.dir")
    if dumps.is_dir() and not dumps.is_symlink():
        shutil.rmtree(dumps)
    # dumps are written as the run goes; a run that fails removes the
    # outermost directory of their path that it made
    made = dump_dir and next((p for p in (*reversed(dump_dir.parents), dump_dir)
                              if not p.exists()), None)
    try:
        records = execute(cfg, dump_dir=dump_dir)
    except BaseException:
        if made:
            shutil.rmtree(made, ignore_errors=True)
        raise
    # out_dir is made only now, so a run that fails leaves no empty directory
    write_csv([r for r in records if r.metric not in ACCURACY_METRICS], out_dir / METRICS_CSV)
    write_csv([r for r in records if r.metric in ACCURACY_METRICS], out_dir / ACCURACY_CSV)
    write_atomic(out_dir / MANIFEST, _render_manifest(cfg))
    return out_dir
