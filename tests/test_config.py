"""Config boundary properties: every valid config survives render and parse,
the rule table judges every config as the rules it replaced did, and README
states the same rules and defaults."""

import hashlib
import math
import re
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

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
        if d.balanced and d.label_noise == 0.0:
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
    # label noise relabels train rows and unbalanced draws leave the per-class
    # counts to data generation, so the eval subset draw checks those
    cfg.data.label_noise = 0.1
    validate_config(cfg)
    cfg.data.label_noise, cfg.data.balanced = 0.0, False
    validate_config(cfg)


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
    cfg.metrics.eval_per_class = cfg.data.train_per_client // cfg.data.classes + 1


# each edit of a valid config breaks one rule, or with kind = idx, label
# noise or unbalanced data maybe none; set_field may break a field's own rule
# and the rules that read it
EDITS = (set_field, set_rule_field, drop_idx_dir, invert_scales, starve_split,
         overflow_draws, dump_too_many_rounds, bad_personalization,
         personalization_without_mode, tap_out_of_range, too_many_eval_rows)


def oracle(cfg):
    """The frozen oracle plus the rules changed after it: a `#` note in a text
    field is an error on that field, and the test split no longer bounds
    `metrics.eval_per_class`, since captures read train rows only."""
    for key in ("data.idx_dir", "output.dir"):
        owner, name = owner_of(cfg, key)
        if NOTE.search(getattr(owner, name)):
            raise ConfigError("a # note", field=key)
    d = cfg.data
    if d.test_per_client >= d.classes:
        # a test split of eval_per_class rows per class leaves the oracle only
        # its train-split bound; a smaller split keeps its own rule
        need = cfg.metrics.eval_per_class * d.classes
        cfg = replace(cfg, data=replace(d, test_per_client=max(d.test_per_client, need)))
    config_oracle.validate_config(cfg)


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
            "70f72a4dd4fd04e7d6f4d30610dcca0073f8a51f29c75d37f49b10f4d19af992",
    },
    "iid-control": {
        "iid-control":
            "b93e5db657845052f73d65ca4e133ddd53baa4edfefdcdea902f2d13248bd3d8",
    },
    "personalization-classifier": {
        "personalization-classifier":
            "0ec8dec79f5b41e7e28b6abe123876f582b38ad9d8d9ace79562ffeccfebfd58",
    },
    "personalization-successive": {
        "personalization-successive-k0":
            "85a2b80aeaeb2f3001bd87a2903173bf88680a48bd35864346d3cc976236b49f",
        "personalization-successive-k1":
            "a4b2744a366e2e96ace574b96c14ad65c8572c9072a3ff95cce2bc7ed242628c",
        "personalization-successive-k2":
            "67a906c680042b6872241ddd4ef4b3bef0e7b6727fe3148f97ee6bb151433c67",
        "personalization-successive-k3":
            "0d2fd2f364ddd53b813bae1adccc9b7355aa81975179e82755e260b44e6d41ea",
        "personalization-successive-k4":
            "fcd8d08c0e65b2d7514ee7f808f685064f0eb0319621f0b26318217e429c6bf7",
        "personalization-successive-k5":
            "1115ca2a289dcdef98268dc6ff3d457e6f46599a8205a731aef7bf59d98ae2da",
        "personalization-successive-k6":
            "5dcae068d531e0bb51e5f8d09aedda23943f13ae7c5869de70e16c375c09f07d",
    },
    "personalization-skip": {
        "personalization-skip-l1":
            "12271cd64bdccb430a41a294b70fb07cf09a62138fc8917fccb00e21a3f206be",
        "personalization-skip-l2":
            "1ab06c2ce3e18f01f88992d5499e38648682462b4bba3190526bbe2ba40a6139",
        "personalization-skip-l3":
            "f399d26216b112842563b8b587788d0135fe43ddeef6ee6aaf6d2f414eb259ef",
        "personalization-skip-l4":
            "133fa4ed736bdcad854c2ae72404486753d7a0ab2809175aea21e8e8d36ce77d",
        "personalization-skip-l5":
            "f162abf273bda7e64edf3b6220c7e0a9ee271a7dac746551e438f0cb8cc35710",
        "personalization-skip-l6":
            "5a51b067834459b9954aaf1755ab50dd4c4cc3a7dce4208bc9685f65b73586d0",
    },
    "pretrained": {
        "pretrained":
            "e15427ff4fb7f6eb5075eb5b90f0c911f3205178cc67f59191f5826fd6b2b89e",
        "pretrained-random-init":
            "efe82c33f727ca27692756d4d3327fea4729a3eedcfb9a6c16e44be5ce4b7f81",
    },
    "finetune": {
        "finetune":
            "627eaa22b2c27d1f4e88726f84a7bfd1fe7085c2bdad3b25e0b4de00ccfb5f3c",
    },
    "local-epochs-ablation": {
        "local-epochs-e5-r20":
            "eca8849f47763c259aaac26b6720ca4879de2bc9c90f4fb23a7d506f566d9b7c",
        "local-epochs-e10-r10":
            "2d5469c28600296182c223a02e3eda23fafc2d64b0fa1fb63598d1ff243c3eb2",
        "local-epochs-e20-r5":
            "b26408a58461e44780adb1c8f37784bfc3b0ab6444c0fb9187facf9a0fd9f57b",
    },
    "residual-ablation": {
        "residual-off":
            "6e2d6722facd97894a1f364bf8d14e9df6664315c5f57f64cf700275dd52c8ee",
        "residual-on":
            "4774eff47111f58009901b5ea5d09b58cb9b2d907ab1f2b4cd15fcf6c042c321",
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
