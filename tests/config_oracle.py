"""A frozen copy of `validate_config` from before its single-field rules
moved into `fedlens.config.RULES`.

It is the oracle of `tests/test_config.py::test_rule_table_keeps_every_verdict`:
the table-driven `validate_config` must accept and reject the same configs,
and name the same field for a config that breaks one rule. Do not edit it to
follow later rule changes; change the property's expectations instead.
"""

import math
import sys

from fedlens.config import (DATA_SCALES, SCENARIOS, U16_MAX, personalized_layers,
                            synthetic_reach)
from fedlens.errors import ConfigError


def validate_config(cfg) -> None:
    """Cross-field checks; raises ConfigError naming the offending field."""
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}, expected one of "
                          f"{', '.join(SCENARIOS)}", field="scenario")
    d = cfg.data
    if d.kind not in ("synthetic", "idx"):
        raise ConfigError(f"unknown data kind {d.kind!r}", field="data.kind")
    if d.kind == "idx" and not d.idx_dir:
        raise ConfigError("idx data needs idx_dir", field="data.idx_dir")
    if d.clients < 1:
        raise ConfigError("need at least one client", field="data.clients")
    if d.classes < 2:
        raise ConfigError("need at least two classes", field="data.classes")
    if d.input_dim < 1:
        raise ConfigError("input_dim must be positive", field="data.input_dim")
    if d.kind == "synthetic":
        for key in ("train_per_client", "test_per_client"):
            if getattr(d, key) < d.classes:
                raise ConfigError(f"{key} must be at least classes ({d.classes})",
                                  field=f"data.{key}")
    for key in ("anchor_scale", "offset_scale", "scale_min", "scale_max"):
        if not math.isfinite(getattr(d, key)):
            raise ConfigError(f"{key} must be finite", field=f"data.{key}")
    if not 0.0 < d.within_class_scale < math.inf:
        raise ConfigError("within_class_scale must be positive and finite",
                          field="data.within_class_scale")
    if d.rotation not in ("random", "identity"):
        raise ConfigError(f"unknown rotation {d.rotation!r}", field="data.rotation")
    if not 0.0 <= d.label_noise < 1.0:
        raise ConfigError("label_noise must be in [0, 1)", field="data.label_noise")
    if d.scale_min > d.scale_max:
        raise ConfigError("scale_min exceeds scale_max", field="data.scale_min")
    if d.kind == "synthetic":
        reach = synthetic_reach(d)
        if not reach <= sys.float_info.max:
            key = max(DATA_SCALES, key=lambda k: abs(getattr(d, k)))
            raise ConfigError(f"data scales let a draw reach {reach:.3g}, past float64's "
                              f"{sys.float_info.max:.3g}", field=f"data.{key}")
    m = cfg.model
    if not m.hidden:
        raise ConfigError("need at least one hidden layer", field="model.hidden")
    if any(h < 1 for h in m.hidden):
        raise ConfigError("hidden widths must be positive", field="model.hidden")
    if m.activation not in ("relu", "linear"):
        raise ConfigError(f"unknown activation {m.activation!r}",
                          field="model.activation")
    if m.residual_width < 0:
        raise ConfigError("residual_width must be non-negative",
                          field="model.residual_width")
    if m.residual_inner < 1:
        raise ConfigError("residual_inner must be positive", field="model.residual_inner")
    f = cfg.fed
    if f.rounds < 1:
        raise ConfigError("rounds must be positive", field="fed.rounds")
    if cfg.output.dump_features and f.rounds > U16_MAX:
        raise ConfigError(f"feature dumps store the round as u16, so at most {U16_MAX} "
                          "rounds can be dumped", field="fed.rounds")
    if f.local_epochs < 0:
        raise ConfigError("local_epochs must be non-negative",
                          field="fed.local_epochs")
    if f.eval_cadence < 1:
        raise ConfigError("eval_cadence must be positive", field="fed.eval_cadence")
    if f.pretrain_epochs < 0:
        raise ConfigError("pretrain_epochs must be non-negative",
                          field="fed.pretrain_epochs")
    if f.batch_size < 1:
        raise ConfigError("batch_size must be positive", field="fed.batch_size")
    num_layers = cfg.num_layers
    name, _ = personalized_layers(f.personalization, num_layers)
    if cfg.scenario == "personalization" and name == "none":
        raise ConfigError("personalization scenario needs a mode",
                          field="fed.personalization")
    mt = cfg.metrics
    for t in mt.taps:
        if not 0 <= t < num_layers:
            raise ConfigError(f"tap layer {t} out of range 0..{num_layers - 1}",
                              field="metrics.taps")
    if mt.eval_per_class < 1:
        raise ConfigError("eval_per_class must be positive",
                          field="metrics.eval_per_class")
    if d.kind == "synthetic" and d.balanced:
        # balanced draws give every class at least count // classes rows;
        # label noise relabels training rows only
        rows = d.test_per_client // d.classes
        if d.label_noise == 0.0:
            rows = min(rows, d.train_per_client // d.classes)
        if mt.eval_per_class > rows:
            raise ConfigError(f"eval_per_class exceeds the {rows} rows each class has",
                              field="metrics.eval_per_class")
    if any(r < 1 for r in mt.probe_rounds):
        raise ConfigError("probe rounds must be positive",
                          field="metrics.probe_rounds")
    for knob in ("probe_epochs", "probe_batch", "finetune_epochs", "finetune_batch"):
        if getattr(mt, knob) < 1:
            raise ConfigError(f"{knob} must be positive", field=f"metrics.{knob}")
    # the range tests are negated so that NaN fails them too
    rates = {"fed.lr": f.lr, "metrics.probe_lr": mt.probe_lr,
             "metrics.finetune_lr": mt.finetune_lr}
    for key, lr in rates.items():
        if not 0.0 < lr < math.inf:
            raise ConfigError("learning rate must be positive and finite", field=key)
    momenta = {"fed.momentum": f.momentum, "metrics.finetune_momentum": mt.finetune_momentum}
    for key, momentum in momenta.items():
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)", field=key)
    if not cfg.output.dir:
        raise ConfigError("output dir must be set", field="output.dir")
