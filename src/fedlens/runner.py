"""Turn an ExperimentConfig into datasets, a federation run, and output files."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .analysis import records_to_csv
from .config import ExperimentConfig, render_config
from .data import (generate_federation_data, load_idx, make_domain_specs,
                   merge_train_test)
from .errors import ConfigError
from .fed import RunResult, run_federation
from .seeds import derive_seed

METRICS_CSV = "metrics.csv"
ACCURACY_CSV = "accuracy.csv"
MANIFEST = "manifest.txt"
DUMP_SUBDIR = "dumps"
ACCURACY_METRICS = ("train_acc", "test_acc")


@dataclass
class RunOutput:
    result: RunResult
    manifest: str


def build_datasets(cfg: ExperimentConfig):
    d = cfg.data
    if d.kind == "synthetic":
        specs = make_domain_specs(
            d.clients, d.classes, d.input_dim, seed=cfg.fed.seed,
            anchor_scale=d.anchor_scale, within_class_scale=d.within_class_scale,
            scale_range=(d.scale_min, d.scale_max), offset_scale=d.offset_scale,
            rotation=d.rotation, label_noise=d.label_noise)
        return generate_federation_data(specs, d.train_per_client, d.test_per_client,
                                        seed=cfg.fed.seed, balanced=d.balanced)
    root = Path(d.idx_dir)
    datasets = []
    for m in range(d.clients):
        train = load_idx(root / f"client{m}_train_images.idx",
                         root / f"client{m}_train_labels.idx", client_id=m)
        test = load_idx(root / f"client{m}_test_images.idx",
                        root / f"client{m}_test_labels.idx", client_id=m)
        datasets.append(merge_train_test(train, test))
    return datasets


def execute(cfg: ExperimentConfig, dump_dir=None) -> RunOutput:
    """Run one experiment in memory; file writing happens in run_to_dir."""
    datasets = build_datasets(cfg)
    for ds in datasets:
        if ds.train_x.shape[1] != cfg.data.input_dim:
            raise ConfigError(
                f"dataset dim {ds.train_x.shape[1]} does not match input_dim "
                f"{cfg.data.input_dim}", field="data.input_dim")
    result = run_federation(cfg, datasets, dump_dir)
    return RunOutput(result, _render_manifest(cfg, result))


def _render_manifest(cfg: ExperimentConfig, result: RunResult) -> str:
    lines = [render_config(cfg).rstrip(), "", "# derived values"]
    lines.append(f"# mask = {result.mask.mode}")
    lines.append(f"# eval rounds = {','.join(str(r) for r in result.eval_rounds)}")
    lines.append(f"# init seed = {derive_seed(cfg.fed.seed, 'init')}")
    if cfg.fed.pretrain_epochs > 0:
        lines.append(f"# pretrain seed = {derive_seed(cfg.fed.seed, 'pretrain')}")
    for m in range(cfg.data.clients):
        lines.append(f"# eval subset seed client {m} = "
                     f"{derive_seed(cfg.fed.seed, 'evalsubset', m)}")
    for client, rnd, seed in result.seed_table:
        lines.append(f"# train seed client {client} round {rnd} = {seed}")
    return "\n".join(lines) + "\n"


def run_to_dir(cfg: ExperimentConfig) -> Path:
    """Execute and write metrics.csv, accuracy.csv, manifest.txt, and dumps."""
    out_dir = Path(cfg.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_dir = out_dir / DUMP_SUBDIR if cfg.output.dump_features else None
    run = execute(cfg, dump_dir=dump_dir)
    acc = [r for r in run.result.records if r.metric in ACCURACY_METRICS]
    rest = [r for r in run.result.records if r.metric not in ACCURACY_METRICS]
    (out_dir / METRICS_CSV).write_text(records_to_csv(rest), newline="\n")
    (out_dir / ACCURACY_CSV).write_text(records_to_csv(acc), newline="\n")
    (out_dir / MANIFEST).write_text(run.manifest, newline="\n")
    return out_dir
