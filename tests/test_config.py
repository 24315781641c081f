"""Config boundary properties: every valid config survives render and parse,
the rule table judges every config as the rules it replaced did, and README
states the same rules and defaults."""

import hashlib
import math
import re
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedlens.config import (PRESETS, RULES, SCENARIOS, U16_MAX, ExperimentConfig,
                            parse_config, personalized_layers, preset, render_config,
                            synthetic_reach, validate_config)
from fedlens.errors import ConfigError
from fedlens.runner import build_datasets, execute

import config_oracle
from conftest import small_config

README = Path(__file__).resolve().parents[1] / "README.md"
# a `#` after whitespace, which text fields reject as a note
NOTE = re.compile(r"\s#")

# one value per line, without the surrounding blanks that the parser strips
LINE_TEXT = (st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                     max_size=12)
             .map(str.strip))
RATE = st.floats(min_value=0.0, max_value=math.inf, exclude_min=True, exclude_max=True)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# data scales far inside the overflow bound of `synthetic_reach`; the bound
# itself has its own test below
SCALE = st.floats(-1e100, 1e100)

# fields that validate_config leaves unchecked take any value of their type
BY_TYPE = {bool: st.booleans(), int: st.integers(), float: st.floats(allow_nan=False),
           str: LINE_TEXT, tuple: st.lists(st.integers(), max_size=6).map(tuple)}


# values inside each kind of RULES domain, given the domain's arg
DOMAIN_VALUES = {
    "at_least": lambda least: st.integers(min_value=least),
    "finite": lambda _: FINITE,
    "positive": lambda _: RATE,
    "unit": lambda _: UNIT,
    "one_of": st.sampled_from,
    # no separators, so that stripping leaves the text non-empty
    "text": lambda _: st.text(st.characters(blacklist_categories=("Cc", "Cs", "Z")),
                              min_size=1, max_size=12).map(str.strip).filter(bool),
    "noteless": lambda _: LINE_TEXT.filter(lambda text: not NOTE.search(text)),
    "entries": lambda least: st.lists(st.integers(min_value=least), max_size=4).map(tuple),
    "widths": lambda least: st.lists(st.integers(min_value=least), min_size=1,
                                     max_size=7).map(tuple),
}


def domain_values(key):
    domain = RULES[key]
    return DOMAIN_VALUES[domain.kind](domain.arg)


def checked_fields(num_layers):
    """Strategies for the fields whose values validate_config restricts: the
    RULES domains, narrowed where a rule reads several fields."""
    rules = {key: domain_values(key) for key in RULES}
    rules.update({
        "data.anchor_scale": SCALE,
        "data.within_class_scale": st.floats(0.0, 1e100, exclude_min=True),
        "data.scale_min": SCALE,
        "data.scale_max": SCALE,
        "data.offset_scale": SCALE,
        "fed.personalization": st.one_of(
            st.sampled_from(("none", "classifier")),
            st.integers(0, num_layers).map(lambda k: f"successive:{k}"),
            st.lists(st.integers(1, num_layers), min_size=1, max_size=3).map(
                lambda layers: "skip:" + ",".join(map(str, layers)))),
        "metrics.taps": st.lists(st.integers(0, num_layers - 1), max_size=4).map(tuple),
    })
    return rules


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
    cfg = ExperimentConfig(scenario=draw(domain_values("scenario")))
    cfg.model.hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
                            if tiny else domain_values("model.hidden"))
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
        cfg.metrics.eval_per_class = min(cfg.metrics.eval_per_class,
                                         d.train_per_client // d.classes)
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


def test_eval_rows_per_class_are_bounded_by_the_train_split():
    # 3 balanced classes: 12 train rows give 4 per class, too few for 5
    cfg = ExperimentConfig()
    cfg.data.classes, cfg.data.train_per_client, cfg.data.test_per_client = 3, 12, 15
    cfg.metrics.eval_per_class = 4
    validate_config(cfg)
    cfg.metrics.eval_per_class = 5
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.field == "metrics.eval_per_class"


def test_a_short_test_split_does_not_bound_eval_rows():
    # 3 balanced classes: 12 test rows give 4 per class, too few for 5, but
    # captures read only the train split's 5 rows per class
    cfg = small_config(2, rounds=1, eval_cadence=1, local_epochs=1)
    cfg.data.train_per_client, cfg.data.test_per_client = 15, 12
    validate_config(cfg)
    assert parse_config(render_config(cfg)) == cfg
    records = execute(cfg)
    assert {r.client for r in records if r.metric == "tr_w"} == {0, 1}


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


# any value of a field's type, NaN and infinities included
ANY_VALUE = {**BY_TYPE, float: st.floats()}
# values of each type at and around the bounds a rule could have
NEAR_BOUNDS = {
    bool: [False, True],
    int: list(range(-2, 4)),
    float: [0.0, -0.0, 1.0, 1.0 - 2**-53, -1e-300, 5e-324, math.nan, math.inf, -math.inf],
    str: list(SCENARIOS) + ["synthetic", "idx", "random", "identity", "relu", "linear",
                            "", "none", "runs/a#b", "runs/out  # note", "\t#"],
    tuple: [(), (0,), (1,), (2, 1), (1, 0), (-1,)],
}
SECTIONS = [top.name for top in fields(ExperimentConfig) if top.name != "scenario"]
FIELD_KEYS = ["scenario"] + [f"{name}.{f.name}" for name in SECTIONS
                             for f in fields(getattr(ExperimentConfig(), name))]


def owner_of(cfg, key):
    section, _, name = key.rpartition(".")
    return (getattr(cfg, section) if section else cfg), name


def set_field(draw, cfg):
    owner, name = owner_of(cfg, draw(st.sampled_from(FIELD_KEYS)))
    setattr(owner, name, draw(ANY_VALUE[type(getattr(owner, name))]))


def set_rule_field(draw, cfg):
    owner, name = owner_of(cfg, draw(st.sampled_from(list(RULES))))
    setattr(owner, name, draw(st.sampled_from(NEAR_BOUNDS[type(getattr(owner, name))])))


def drop_idx_dir(draw, cfg):
    cfg.data.kind, cfg.data.idx_dir = "idx", ""


def invert_scales(draw, cfg):
    low, high = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    cfg.data.scale_min, cfg.data.scale_max = high, low


def starve_split(draw, cfg):
    key = draw(st.sampled_from(("train_per_client", "test_per_client")))
    setattr(cfg.data, key, draw(st.integers(max_value=cfg.data.classes - 1)))


def overflow_draws(draw, cfg):
    # 14 * 1e307 is past float64 whatever the other scales are
    cfg.data.within_class_scale = draw(st.floats(1e307, 1e308))


def dump_too_many_rounds(draw, cfg):
    cfg.output.dump_features = True
    cfg.fed.rounds = draw(st.integers(min_value=U16_MAX + 1))


def bad_personalization(draw, cfg):
    n = cfg.num_layers
    cfg.fed.personalization = draw(st.sampled_from(
        (f"successive:{n + 1}", "successive:x", f"skip:{n + 1}", "skip:0", "skip:", "all")))


def personalization_without_mode(draw, cfg):
    cfg.scenario, cfg.fed.personalization = "personalization", "none"


def tap_out_of_range(draw, cfg):
    tap = draw(st.integers(min_value=cfg.num_layers) | st.integers(max_value=-1))
    cfg.metrics.taps += (tap,)


def too_many_eval_rows(draw, cfg):
    # an earlier set_field may have left classes below 1, which its rule refuses
    cfg.metrics.eval_per_class = cfg.data.train_per_client // max(cfg.data.classes, 1) + 1


# each edit of a valid config breaks one rule, or with kind = idx maybe none;
# set_field may break a field's own rule and the rules that read it
EDITS = (set_field, set_rule_field, drop_idx_dir, invert_scales, starve_split,
         overflow_draws, dump_too_many_rounds, bad_personalization,
         personalization_without_mode, tap_out_of_range, too_many_eval_rows)


def oracle(cfg):
    """The frozen oracle plus the rules changed after it: a `#` note in a text
    field is an error on that field, the test split no longer bounds
    `metrics.eval_per_class`, since captures read train rows only, and
    synthetic data is always balanced and noise-free, so the oracle reads
    `label_noise = 0.0` and `balanced = True`, the removed keys' only values."""
    for key in ("data.idx_dir", "output.dir"):
        owner, name = owner_of(cfg, key)
        if NOTE.search(getattr(owner, name)):
            raise ConfigError("a # note", field=key)
    d = cfg.data
    data = SimpleNamespace(**vars(d), label_noise=0.0, balanced=True)
    if d.test_per_client >= d.classes:
        # a test split of eval_per_class rows per class leaves the oracle only
        # its train-split bound; a smaller split keeps its own rule
        need = cfg.metrics.eval_per_class * d.classes
        data.test_per_client = max(d.test_per_client, need)
    config_oracle.validate_config(replace(cfg, data=data))


def verdict(validate, cfg):
    """None if `validate` accepts the config, else (error type, field)."""
    try:
        validate(cfg)
    except Exception as exc:  # noqa: BLE001 - the oracle's own error types count too
        return type(exc).__name__, getattr(exc, "field", None)
    return None


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_rule_table_keeps_every_verdict(data):
    cfg = data.draw(valid_configs())
    edits = data.draw(st.lists(st.sampled_from(EDITS), max_size=3))
    for edit in edits:
        edit(data.draw, cfg)
    old = verdict(oracle, cfg)
    new = verdict(validate_config, cfg)
    assert (old is None) == (new is None), (old, new)
    if len(edits) <= 1:
        assert old == new
    else:
        # with several rules broken the table may name another of them first
        assert new is None or new[0] == "ConfigError"


@pytest.mark.parametrize("key", list(RULES))
def test_each_rule_judges_values_near_its_bound_as_before(key):
    owner, name = owner_of(ExperimentConfig(), key)
    for value in NEAR_BOUNDS[type(getattr(owner, name))]:
        cfg = ExperimentConfig()
        setattr(owner_of(cfg, key)[0], name, value)
        assert verdict(validate_config, cfg) == verdict(oracle, cfg), value


def readme_section(heading):
    text = README.read_text()
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_readme_example_config_is_the_default():
    block = re.search(r"```ini\n(.*?)```", readme_section("Config format"), re.S).group(1)
    assert parse_config(block) == ExperimentConfig()


def capitalized(text):
    return text[0].upper() + text[1:]


def test_readme_lists_every_rule_under_its_bound():
    section = readme_section("Config format")
    rules = section[section.index("Each field's bound"):section.index("These bounds are")]
    bullets = {}
    for bullet in rules.split("\n- ")[1:]:
        lead, _, body = " ".join(bullet.split()).partition(": ")
        bullets[lead] = body
    for key, domain in RULES.items():
        assert f"`{key}`" in bullets.get(capitalized(domain.bound), ""), \
            f"README lists {key} under no {domain.bound!r} rule"
    # a rule bullet names only the fields of its bound
    for lead, body in bullets.items():
        if lead in {capitalized(d.bound) for d in RULES.values()}:
            for key in re.findall(r"`([a-z_.]+)`", body):
                assert capitalized(RULES[key].bound) == lead, (lead, key)


# preset -> config name -> sha256 of its render_config document at seed 1
GOLDEN_PRESETS = {
    "baseline": {
        "baseline":
            "5f50d7a04c60368ca4731da9081d33c72e0a2c39d7e2a4e95720e835a18c3f65",
    },
    "iid-control": {
        "iid-control":
            "1d4670501dbbe143a77f62f3cf144fa5a881f6e2f15edd266a221dcee9ee6bd4",
    },
    "personalization-classifier": {
        "personalization-classifier":
            "fcb27f982d097b8ce018855b281ead83c70025c7ad5d31116e45b7749a645658",
    },
    "personalization-successive": {
        "personalization-successive-k0":
            "0705ba08bd0bb62c566c7a6326f6323c8bc415ffc243493d831ae4003a7aedb5",
        "personalization-successive-k1":
            "b871a5b8a8b5e538f8d09fecb68d3cb8b28dfb4cbb267c498271bf059f6542e7",
        "personalization-successive-k2":
            "438bee3bd3fd61954ae70c27172525313712fde829528b11a58b4c6164a80478",
        "personalization-successive-k3":
            "de7d495a89c9858858b1e7d9e0b109e6f760300fda8b04f3fb894416db8e8061",
        "personalization-successive-k4":
            "1aa5305e1bbb11d4474111efd8bf648720e9109ac3b003e38cb19f333c7bd554",
        "personalization-successive-k5":
            "dd24033b967be43b59a166a251afbab44cc236a8dbc1d7e149b7b80c53e037ff",
        "personalization-successive-k6":
            "c29397af1a244d42a4a74e0ab4dd5f843246c5ea8ee086d7cd5a28140806207e",
    },
    "personalization-skip": {
        "personalization-skip-l1":
            "4d511d4d2ac2e4525f8a8432517fad410f22db0da336692f4b211122dff302b8",
        "personalization-skip-l2":
            "21ee3a368bd10a3a78a562604794ed37515fbb05d49c94eaf9bde2969e401aa7",
        "personalization-skip-l3":
            "e48dc1804bf98b360b54a47b66ece960d3191526efa806c2cd081b021b555e52",
        "personalization-skip-l4":
            "088deffeb512b81668b6110aef8f81e5829e07bd762a0acbd812b0008aad8e78",
        "personalization-skip-l5":
            "0a5ba5d0aeae3e69aabc6bd2e6d6d6f902e1e8ee3b617e6d0ea0888adf159f9e",
        "personalization-skip-l6":
            "bb1f2735e9cd311162c6db6b0d71d1711e7b5816551aa54fbbf06c329319a29e",
    },
    "pretrained": {
        "pretrained":
            "cf858687d593d0f96ba22c0936e6c5e526d83cf51260019daa33e191978be399",
        "pretrained-random-init":
            "d045249658ad8ec85edc72aa0486599b863697108d5054e5492d3086405666f7",
    },
    "finetune": {
        "finetune":
            "95ffb754e022f80105786186cb198e67bb446e328697ffeda7372496220e2e23",
    },
    "local-epochs-ablation": {
        "local-epochs-e5-r20":
            "b5c0c58b6c315b1a3a6ca46ce9e72a22a017fbfe58d44b691f1f985bde3f5832",
        "local-epochs-e10-r10":
            "7b6b14a7b2e5cf58edee458bf23c1d5e83a24258414d8ab829185b4cfed1b577",
        "local-epochs-e20-r5":
            "5a991250993564da0563cb3add1617c398260fc25a97730100fe8ed01a9f8051",
    },
    "residual-ablation": {
        "residual-off":
            "5627e8b8d1c3c9eba83c41dc8ac17b0b2fc6a88a02ad0d1251c4a9472181b133",
        "residual-on":
            "1e9d46b04096036d0de6a292576646cf9fa52c00586f8d0ec8b2e0f78b3ab637",
    },
}


def test_presets_render_their_golden_documents():
    assert list(GOLDEN_PRESETS) == list(PRESETS)
    for name, want in GOLDEN_PRESETS.items():
        reseeded = dict(preset(name, seed=7))
        got = {}
        for sub_name, cfg in preset(name, seed=1):
            text = render_config(cfg)
            got[sub_name] = hashlib.sha256(text.encode()).hexdigest()
            assert cfg.output.dir == f"runs/{sub_name}"
            changed = [(a, b) for a, b in zip(text.splitlines(),
                                              render_config(reseeded[sub_name]).splitlines())
                       if a != b]
            assert changed == [("seed = 1", "seed = 7")], sub_name
        assert got == want, name
