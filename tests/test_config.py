"""Config boundary properties: every valid config survives render and parse."""

import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedlens.config import (SCENARIOS, U16_MAX, ExperimentConfig, parse_config,
                            personalized_layers, render_config, synthetic_reach,
                            validate_config)
from fedlens.errors import ConfigError
from fedlens.runner import build_datasets

# one value per line, without the surrounding blanks that the parser strips
LINE_TEXT = (st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                     max_size=12)
             .map(str.strip))
POSITIVE = st.integers(min_value=1)
RATE = st.floats(min_value=0.0, max_value=math.inf, exclude_min=True, exclude_max=True)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# data scales far inside the overflow bound of `synthetic_reach`; the bound
# itself has its own test below
SCALE = st.floats(-1e100, 1e100)

# fields that validate_config leaves unchecked take any value of their type
BY_TYPE = {bool: st.booleans(), int: st.integers(), float: st.floats(allow_nan=False),
           str: LINE_TEXT, tuple: st.lists(st.integers(), max_size=6).map(tuple)}


def checked_fields(num_layers):
    """Strategies for the fields whose values validate_config restricts."""
    return {
        "data.kind": st.sampled_from(("synthetic", "idx")),
        "data.clients": POSITIVE,
        "data.classes": st.integers(min_value=2),
        "data.input_dim": POSITIVE,
        "data.anchor_scale": SCALE,
        "data.within_class_scale": st.floats(0.0, 1e100, exclude_min=True),
        "data.scale_min": SCALE,
        "data.scale_max": SCALE,
        "data.offset_scale": SCALE,
        "data.rotation": st.sampled_from(("random", "identity")),
        "data.label_noise": UNIT,
        "model.activation": st.sampled_from(("relu", "linear")),
        "model.residual_width": st.integers(min_value=0),
        "model.residual_inner": POSITIVE,
        "fed.rounds": POSITIVE,
        "fed.local_epochs": st.integers(min_value=0),
        "fed.lr": RATE,
        "fed.momentum": UNIT,
        "fed.batch_size": POSITIVE,
        "fed.eval_cadence": POSITIVE,
        "fed.personalization": st.one_of(
            st.sampled_from(("none", "classifier")),
            st.integers(0, num_layers).map(lambda k: f"successive:{k}"),
            st.lists(st.integers(1, num_layers), min_size=1, max_size=3).map(
                lambda layers: "skip:" + ",".join(map(str, layers)))),
        "fed.pretrain_epochs": st.integers(min_value=0),
        "metrics.taps": st.lists(st.integers(0, num_layers - 1), max_size=4).map(tuple),
        "metrics.eval_per_class": POSITIVE,
        "metrics.probe_rounds": st.lists(POSITIVE, max_size=4).map(tuple),
        "metrics.probe_epochs": POSITIVE,
        "metrics.probe_lr": RATE,
        "metrics.probe_batch": POSITIVE,
        "metrics.finetune_epochs": POSITIVE,
        "metrics.finetune_lr": RATE,
        "metrics.finetune_momentum": UNIT,
        "metrics.finetune_batch": POSITIVE,
        "output.dir": LINE_TEXT.filter(bool),
    }


# sizes that keep a whole `fedlens run` of a drawn config to milliseconds
TINY = {
    "data.clients": st.integers(1, 3),
    "data.classes": st.integers(2, 4),
    "data.input_dim": st.integers(1, 4),
    "data.train_per_client": st.integers(1, 16),
    "data.test_per_client": st.integers(1, 16),
    "model.residual_width": st.integers(0, 4),
    "model.residual_inner": st.integers(1, 3),
    "fed.rounds": st.integers(1, 3),
    "fed.local_epochs": st.integers(0, 2),
    "fed.pretrain_epochs": st.integers(0, 2),
    "fed.eval_cadence": st.integers(1, 2),
    "metrics.eval_per_class": st.integers(1, 4),
    "metrics.probe_rounds": st.lists(st.integers(1, 3), max_size=2).map(tuple),
    "metrics.probe_epochs": st.integers(1, 2),
    "metrics.finetune_epochs": st.integers(1, 2),
}


@st.composite
def valid_configs(draw, tiny=False):
    """Configs that validate_config accepts; with `tiny`, held to TINY sizes
    and at most three hidden layers of width 4."""
    cfg = ExperimentConfig(scenario=draw(st.sampled_from(SCENARIOS)))
    widths = st.integers(1, 4) if tiny else POSITIVE
    cfg.model.hidden = draw(st.lists(widths, min_size=1, max_size=3 if tiny else 7)
                            .map(tuple))
    rules = checked_fields(cfg.num_layers)
    rules["model.hidden"] = st.just(cfg.model.hidden)
    if tiny:
        rules.update(TINY)
    for top in fields(cfg):
        section = getattr(cfg, top.name)
        if not is_dataclass(section):
            continue
        for f in fields(section):
            default = getattr(section, f.name)
            setattr(section, f.name,
                    draw(rules.get(f"{top.name}.{f.name}", BY_TYPE[type(default)])))
    d = cfg.data
    d.scale_min, d.scale_max = sorted((d.scale_min, d.scale_max))
    assume(d.kind == "synthetic" or d.idx_dir)
    if d.kind == "synthetic":
        d.train_per_client = max(d.train_per_client, d.classes)
        d.test_per_client = max(d.test_per_client, d.classes)
        if d.balanced:
            rows = d.test_per_client // d.classes
            if d.label_noise == 0.0:
                rows = min(rows, d.train_per_client // d.classes)
            cfg.metrics.eval_per_class = min(cfg.metrics.eval_per_class, rows)
    if cfg.output.dump_features:
        cfg.fed.rounds = min(cfg.fed.rounds, U16_MAX)
    mode, _ = personalized_layers(cfg.fed.personalization, cfg.num_layers)
    assume(cfg.scenario != "personalization" or mode != "none")
    return cfg


@settings(max_examples=300, deadline=None)
@given(valid_configs())
def test_render_then_parse_gives_back_the_config(cfg):
    validate_config(cfg)
    assert parse_config(render_config(cfg)) == cfg


@pytest.mark.parametrize("train, test", [(12, 15), (15, 12)])
def test_eval_rows_per_class_are_bounded_by_both_splits(train, test):
    # 3 balanced classes: 12 rows give 4 per class, too few for 5
    cfg = ExperimentConfig()
    cfg.data.classes, cfg.data.train_per_client, cfg.data.test_per_client = 3, train, test
    cfg.metrics.eval_per_class = 4
    validate_config(cfg)
    cfg.metrics.eval_per_class = 5
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.field == "metrics.eval_per_class"
    # label noise relabels training rows only, so the test split still bounds
    cfg.data.label_noise = 0.1
    if test < train:
        with pytest.raises(ConfigError):
            validate_config(cfg)
    else:
        validate_config(cfg)
    # unbalanced draws leave the per-class counts to data generation
    cfg.data.label_noise, cfg.data.balanced = 0.0, False
    validate_config(cfg)


@pytest.mark.parametrize("rotation", ["random", "identity"])
def test_data_scales_are_bounded_by_the_generator(rotation):
    cfg = ExperimentConfig()
    d = cfg.data
    d.rotation, d.anchor_scale, d.offset_scale = rotation, 0.0, 0.0
    d.scale_min = d.scale_max = 1.0
    d.within_class_scale = 1.0
    unit = synthetic_reach(d)
    # just inside the bound the config runs and every draw is finite
    d.within_class_scale = 0.99 * sys.float_info.max / unit
    validate_config(cfg)
    for ds in build_datasets(cfg):
        assert np.isfinite(ds.train_x).all() and np.isfinite(ds.test_x).all()
    d.within_class_scale *= 1.02
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.field == "data.within_class_scale"
    # the largest scale is named; the offset adds to the scaled draws
    d.within_class_scale, d.offset_scale = 1.0, sys.float_info.max / 10
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.field == "data.offset_scale"
    # idx data is not drawn, so its scales are not bounded
    d.kind, d.idx_dir = "idx", "anywhere"
    validate_config(cfg)
