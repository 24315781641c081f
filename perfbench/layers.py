"""What the traced run measures in each fedlens module.

`TARGETS` names the wrapped functions by dotted path, each with an optional
counter hook. `PER_LAYER` turns the spans of one repetition of a workload
into the per-layer metrics. `expected_counts` derives the same call counts
in closed form from the workload's config, which catches a wrapper that
misses a call site.
"""

from __future__ import annotations

import math
import os

SVD = "fedlens.linalg.svd"
ALIGN = "fedlens.metrics.pabs_alignment"
CLASS_STATS = "fedlens.metrics.class_stats"
EXTRACT = "fedlens.metrics.extract_tap_features"
DISTANCES = "fedlens.metrics.pairwise_distances"
PROBE = "fedlens.metrics.linear_probe"
LOSS = "fedlens.nn.Network.loss_and_grad"
FORWARD = "fedlens.nn.Network.forward"
FROM_VECTOR = "fedlens.nn.Network.from_vector"
FLATTEN = "fedlens.nn.Network.flatten"
SGD = "fedlens.nn.sgd_epochs"
SAVE_PARAMS = "fedlens.nn.save_params"
LOAD_PARAMS = "fedlens.nn.load_params"
RUN_FED = "fedlens.fed.run_federation"
FINETUNE = "fedlens.fed.finetune_classifier"
PRETRAIN = "fedlens.fed.pretrain"
AGGREGATE = "fedlens.fed.aggregate"
SPLICE = "fedlens.fed.splice"
DOMAIN_SPECS = "fedlens.data.make_domain_specs"
GENERATE = "fedlens.data.generate_federation_data"
EVAL_SUBSET = "fedlens.data.balanced_eval_subset"
WRITE_ROUND = "fedlens.dumps.write_round_dumps"
WRITE_FEATURES = "fedlens.dumps.write_features"
READ_FEATURES = "fedlens.dumps.read_features"
FROM_DUMPS = "fedlens.dumps.metrics_from_dumps"
TO_CSV = "fedlens.analysis.records_to_csv"
WRITE_CSV = "fedlens.analysis.write_csv"
READ_CSV = "fedlens.analysis.read_csv"
REL_CHANGE = "fedlens.analysis.relative_change_records"
LOAD_CONFIG = "fedlens.config.load_config"
EXECUTE = "fedlens.runner.execute"
RUN_TO_DIR = "fedlens.runner.run_to_dir"


def _matmul_macs(specs) -> int:
    """Multiply-adds per batch row of one forward pass through the layers."""
    total = 0
    for spec in specs:
        if spec.kind == "residual":
            dims = ([spec.in_dim] + [spec.inner_width] * (spec.inner_layers - 1)
                    + [spec.out_dim])
            total += sum(a * b for a, b in zip(dims, dims[1:]))
        else:
            total += spec.in_dim * spec.out_dim
    return total


def _flop_hook(passes: int):
    """Count matmul flops computed from layer shapes times batch rows.

    A forward pass does one matmul per weight; a backward pass two more
    (weight gradient and input gradient), so loss_and_grad is three passes.
    """
    def hook(tracer, args, kwargs):
        tracer.count("nn.flop", 2 * passes * len(args[1]) * _matmul_macs(args[0].specs))

    return hook


def _file_hook(kind: str, path_arg: int):
    def hook(tracer, args, kwargs):
        path = args[path_arg] if len(args) > path_arg else kwargs["path"]
        tracer.count(f"dumps.files_{kind}")
        tracer.count(f"dumps.bytes_{kind}", os.path.getsize(path))

    return hook


def _records_hook(tracer, args, kwargs):
    tracer.count("analysis.records_written", len(args[0]))


TARGETS = {
    SVD: None,
    ALIGN: None,
    CLASS_STATS: None,
    EXTRACT: None,
    DISTANCES: None,
    PROBE: None,
    LOSS: _flop_hook(3),
    FORWARD: _flop_hook(1),
    FROM_VECTOR: None,
    FLATTEN: None,
    SGD: None,
    SAVE_PARAMS: _file_hook("written", 1),
    LOAD_PARAMS: _file_hook("read", 0),
    RUN_FED: None,
    FINETUNE: None,
    PRETRAIN: None,
    AGGREGATE: None,
    SPLICE: None,
    DOMAIN_SPECS: None,
    GENERATE: None,
    EVAL_SUBSET: None,
    WRITE_ROUND: None,
    WRITE_FEATURES: _file_hook("written", 0),
    READ_FEATURES: _file_hook("read", 0),
    FROM_DUMPS: None,
    TO_CSV: _records_hook,
    WRITE_CSV: None,
    READ_CSV: None,
    REL_CHANGE: None,
    LOAD_CONFIG: None,
    EXECUTE: None,
    RUN_TO_DIR: None,
}


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


# (name, unit, better, value from a SpanTable of one repetition). Values are
# totals over every traced command of the repetition. trace_overhead_frac
# needs untraced wall times, so run.py adds it.
PER_LAYER = [
    ("linalg.svd_s", "s", "lower", lambda t: t.busy_s(SVD)),
    ("linalg.svd_calls", "count", "lower", lambda t: t.calls(SVD)),
    ("linalg.svd_us", "us", "lower", lambda t: _ratio(t.busy_s(SVD), t.calls(SVD), 1e6)),
    ("metrics.alignment_s", "s", "lower", lambda t: t.self_s(ALIGN)),
    ("metrics.alignment_calls", "count", "lower", lambda t: t.calls(ALIGN)),
    ("metrics.class_stats_s", "s", "lower", lambda t: t.busy_s(CLASS_STATS)),
    ("metrics.extract_taps_s", "s", "lower", lambda t: t.busy_s(EXTRACT)),
    ("metrics.distances_s", "s", "lower", lambda t: t.busy_s(DISTANCES)),
    ("metrics.probe_s", "s", "lower", lambda t: t.busy_s(PROBE)),
    ("metrics.probe_calls", "count", "lower", lambda t: t.calls(PROBE)),
    ("nn.minibatches", "count", "lower", lambda t: t.calls(LOSS)),
    ("nn.loss_and_grad_s", "s", "lower", lambda t: t.busy_s(LOSS)),
    ("nn.minibatch_us", "us", "lower",
     lambda t: _ratio(t.busy_s(SGD), t.calls(LOSS), 1e6)),
    ("nn.sgd_self_s", "s", "lower", lambda t: t.self_s(SGD)),
    ("nn.from_vector_s", "s", "lower", lambda t: t.busy_s(FROM_VECTOR)),
    ("nn.flatten_s", "s", "lower", lambda t: t.busy_s(FLATTEN)),
    ("nn.forward_s", "s", "lower", lambda t: t.busy_s(FORWARD)),
    ("nn.forward_calls", "count", "lower", lambda t: t.calls(FORWARD)),
    ("nn.gflop_computed", "GFLOP", "lower", lambda t: t.counter("nn.flop") / 1e9),
    ("nn.gflops_per_s", "GFLOP/s", "higher",
     lambda t: _ratio(t.counter("nn.flop") / 1e9, t.busy_s(LOSS, FORWARD))),
    ("fed.local_train_s", "s", "lower", lambda t: t.under_s(SGD, RUN_FED)),
    ("fed.finetune_s", "s", "lower", lambda t: t.busy_s(FINETUNE)),
    ("fed.pretrain_s", "s", "lower", lambda t: t.busy_s(PRETRAIN)),
    ("fed.aggregate_s", "s", "lower", lambda t: t.busy_s(AGGREGATE)),
    ("fed.aggregate_calls", "count", "lower", lambda t: t.calls(AGGREGATE)),
    ("fed.splice_s", "s", "lower", lambda t: t.busy_s(SPLICE)),
    ("fed.run_federation_self_s", "s", "lower", lambda t: t.self_s(RUN_FED)),
    ("data.generate_s", "s", "lower", lambda t: t.busy_s(DOMAIN_SPECS, GENERATE)),
    ("data.eval_subset_s", "s", "lower", lambda t: t.busy_s(EVAL_SUBSET)),
    ("dumps.write_s", "s", "lower", lambda t: t.busy_s(WRITE_ROUND)),
    ("dumps.files_written", "count", "lower", lambda t: t.counter("dumps.files_written")),
    ("dumps.bytes_written", "bytes", "lower", lambda t: t.counter("dumps.bytes_written")),
    ("dumps.read_s", "s", "lower", lambda t: t.busy_s(READ_FEATURES, LOAD_PARAMS)),
    ("dumps.files_read", "count", "lower", lambda t: t.counter("dumps.files_read")),
    ("dumps.bytes_read", "bytes", "lower", lambda t: t.counter("dumps.bytes_read")),
    ("dumps.offline_self_s", "s", "lower", lambda t: t.self_s(FROM_DUMPS)),
    ("analysis.csv_write_s", "s", "lower", lambda t: t.busy_s(TO_CSV, WRITE_CSV)),
    ("analysis.records_written", "count", "lower",
     lambda t: t.counter("analysis.records_written")),
    ("analysis.csv_read_s", "s", "lower", lambda t: t.busy_s(READ_CSV)),
    ("analysis.rel_change_s", "s", "lower", lambda t: t.busy_s(REL_CHANGE)),
    ("cli.import_s", "s", "lower", lambda t: t.import_s),
    ("config.parse_s", "s", "lower", lambda t: t.busy_s(LOAD_CONFIG)),
    ("runner.execute_s", "s", "lower", lambda t: t.busy_s(EXECUTE)),
    ("runner.write_s", "s", "lower", lambda t: t.self_s(RUN_TO_DIR)),
]


def expected_counts(cfg: dict, offline: bool) -> dict:
    """Closed-form counts of one `run` (plus `metrics` on its dumps if offline).

    `cfg` maps section -> key -> text, as `workloads.parse_config_text`
    returns it; the top-level `scenario` sits under section "".
    """
    data, fed, mt, out = cfg["data"], cfg["fed"], cfg["metrics"], cfg["output"]
    clients = int(data["clients"])
    n_train = int(data["train_per_client"])
    rounds = int(fed["rounds"])
    cadence = int(fed["eval_cadence"])
    eval_rounds = rounds // cadence
    layers = len(_int_list(cfg["model"]["hidden"])) + 1
    taps = len(set(_int_list(mt["taps"]))) or layers
    finetune = cfg[""]["scenario"] == "finetune"

    minibatches = (clients * rounds * int(fed["local_epochs"])
                   * math.ceil(n_train / int(fed["batch_size"])))
    minibatches += (int(fed["pretrain_epochs"])
                    * math.ceil(clients * n_train / int(fed["batch_size"])))
    if finetune:
        minibatches += (eval_rounds * clients * int(mt["finetune_epochs"])
                        * math.ceil(n_train / int(mt["finetune_batch"])))
    if int(data["test_per_client"]) > 0:
        probe_rounds = {r for r in _int_list(mt["probe_rounds"])
                        if r <= rounds and r % cadence == 0}
        # per probe round: every dataset is probed on the post model and on
        # each other client's pre model, at the penultimate tap only
        minibatches += (len(probe_rounds) * clients * clients * int(mt["probe_epochs"])
                        * math.ceil(n_train / int(mt["probe_batch"])))

    captures = eval_rounds * clients * 2          # pre and post, per client
    alignment = captures * taps + (eval_rounds * clients if finetune else 0)
    files = 0
    if _flag(out["dump_features"]):
        files = captures * (taps + _flag(out["dump_models"]))
    files_read = files if offline else 0
    if offline and _flag(out["dump_models"]):
        alignment += captures * taps
    return {"nn.minibatches": minibatches,
            "metrics.alignment_calls": alignment,
            "linalg.svd_calls": 3 * alignment,
            "dumps.files_written": files,
            "dumps.files_read": files_read}


def _int_list(text: str):
    return [int(p) for p in text.split(",") if p.strip()]


def _flag(text: str) -> int:
    return int(text.strip().lower() in ("true", "yes", "1"))
