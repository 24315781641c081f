"""Command-line interface.

Subcommands: run an experiment config, materialize a named preset, recompute
metrics from feature dumps, and export a merged long-format CSV. Exit codes:
0 success, 2 configuration problems, 3 runtime failures. Each command imports
what only it uses when it is called: `run` and `metrics` the numpy engine, `run`
and `preset` the config module, so `export` starts without either.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (ACCURACY_CSV, METRICS_CSV, read_csv, relative_change_records,
                       write_csv)
from .errors import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_run(args) -> int:
    from .config import load_config
    from .runner import run_to_dir
    cfg = load_config(args.config)
    out_dir = run_to_dir(cfg)
    print(f"wrote {out_dir / METRICS_CSV}")
    print(f"wrote {out_dir / ACCURACY_CSV}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    from .config import preset, render_config
    configs = preset(args.name)
    out_root = Path(args.out) if args.out else Path(".")
    out_root.mkdir(parents=True, exist_ok=True)
    for sub_name, cfg in configs:
        path = out_root / f"{sub_name}.cfg"
        path.write_text(render_config(cfg), newline="\n")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    from .dumps import metrics_from_dumps
    dump_dir = Path(args.dump_dir)
    if not dump_dir.is_dir():
        raise ConfigError(f"dump directory {dump_dir} does not exist")
    records, warnings = metrics_from_dumps(dump_dir)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    out = Path(args.out) if args.out else dump_dir / "metrics_from_dumps.csv"
    write_csv(records, out)
    print(f"wrote {out} ({len(records)} records, {len(warnings)} warnings)")
    return EXIT_OK


def _cmd_export(args) -> int:
    run_dir = Path(args.run_dir)
    metrics_path = run_dir / METRICS_CSV
    if not metrics_path.is_file():
        raise ConfigError(f"{metrics_path} not found; is this a run directory?")
    records = read_csv(metrics_path)
    acc_path = run_dir / ACCURACY_CSV
    if acc_path.is_file():
        records.extend(read_csv(acc_path))
    records.extend(relative_change_records(records))
    out = Path(args.out) if args.out else run_dir / "long.csv"
    write_csv(records, out)
    print(f"wrote {out} ({len(records)} records)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlens",
        description="Federated-averaging simulator with layer-wise feature diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a config file")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="write a named preset config")
    p_preset.add_argument("name", help="preset name, as listed in README")
    p_preset.add_argument("--out", default=None, help="directory for config files")
    p_preset.set_defaults(func=_cmd_preset)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from feature dumps")
    p_metrics.add_argument("dump_dir", help="directory of .fplf/.fpnv dumps")
    p_metrics.add_argument("--out", default=None, help="output CSV path")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_export = sub.add_parser("export", help="merge run CSVs into one long table")
    p_export.add_argument("run_dir", help="directory produced by `fedlens run`")
    p_export.add_argument("--long", action="store_true",
                          help="long format (the only supported layout)")
    p_export.add_argument("--out", default=None, help="output CSV path")
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
