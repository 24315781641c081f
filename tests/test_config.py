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
    cfg.fed.eval_cadence = min(cfg.fed.eval_cadence, cfg.fed.rounds)
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


def test_scale_range_must_fit_float64():
    # numpy's uniform draw refuses a range whose width is past float64; the
    # draws themselves stay far inside the reach bound
    cfg = ExperimentConfig()
    d = cfg.data
    d.anchor_scale, d.offset_scale, d.within_class_scale = 0.0, 0.0, 1e-300
    d.scale_min, d.scale_max = -8.9e307, 8.9e307
    validate_config(cfg)
    for ds in build_datasets(cfg):
        assert np.isfinite(ds.train_x).all() and np.isfinite(ds.test_x).all()
    d.scale_min, d.scale_max = -9e307, 9e307
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.field == "data.scale_max"
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
    str: list(SCENARIOS) + ["synthetic", "idx", "random", "identity", "", "none",
                            "runs/a#b", "runs/out  # note", "\t#"],
    tuple: [(), (0,), (1,), (2, 1), (1, 0), (-1,)],
}
SECTIONS = [top.name for top in fields(ExperimentConfig) if top.name != "scenario"]
FIELD_KEYS = ["scenario"] + [f"{name}.{f.name}" for name in SECTIONS
                             for f in fields(getattr(ExperimentConfig(), name))]


# the fields without a rule of their own in RULES, each with the reason
UNRULED = {
    "model.residual": "a boolean",
    "output.dump_features": "a boolean",
    "output.dump_models": "a boolean",
    "data.train_per_client": "checked against data.classes by a cross-field rule",
    "data.test_per_client": "checked against data.classes by a cross-field rule",
    "fed.personalization": "checked against the layer count by a cross-field rule",
    "metrics.taps": "checked against the layer count by a cross-field rule",
    "fed.seed": "any integer seeds a run",
}


def test_every_field_has_a_rule_or_a_reason_for_none():
    # a field added without a rule fails here until it gets one or a reason
    assert set(FIELD_KEYS) - set(RULES) == set(UNRULED)
    assert set(RULES) <= set(FIELD_KEYS)


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


def widen_scale_range(draw, cfg):
    # a scale range past float64, with draws too small to reach its limit
    d = cfg.data
    d.anchor_scale, d.offset_scale, d.within_class_scale = 0.0, 0.0, 1e-300
    high = draw(st.floats(9e307, sys.float_info.max))
    d.scale_min, d.scale_max = -high, high


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


def cadence_past_rounds(draw, cfg):
    cfg.fed.eval_cadence = cfg.fed.rounds + draw(st.integers(min_value=1))


def too_many_eval_rows(draw, cfg):
    # an earlier set_field may have left classes below 1, which its rule refuses
    cfg.metrics.eval_per_class = cfg.data.train_per_client // max(cfg.data.classes, 1) + 1


# each edit of a valid config breaks one rule, or with kind = idx maybe none;
# set_field may break a field's own rule and the rules that read it
EDITS = (set_field, set_rule_field, drop_idx_dir, invert_scales, starve_split,
         overflow_draws, widen_scale_range, dump_too_many_rounds, bad_personalization,
         personalization_without_mode, tap_out_of_range, cadence_past_rounds,
         too_many_eval_rows)


def oracle(cfg):
    """The frozen oracle plus the rules changed after it: a `#` note in a text
    field is an error on that field, the test split no longer bounds
    `metrics.eval_per_class`, since captures read train rows only, and a
    synthetic scale range past float64 is an error on `data.scale_max`, since
    the uniform scaling draw needs its width, and an `eval_cadence` past
    `rounds` is an error on `fed.eval_cadence`, since such a run evaluates no
    round and records nothing. The oracle reads removed keys at
    their only values: synthetic data is always balanced and noise-free
    (`label_noise = 0.0`, `balanced = True`), hidden layers are always ReLU
    (`activation = "relu"`), and the probe and fine-tune rates are fixed
    (`probe_lr = 0.01`, `finetune_lr = 0.01`, `finetune_momentum = 0.1`)."""
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
    model = SimpleNamespace(**vars(cfg.model), activation="relu")
    metrics = SimpleNamespace(**vars(cfg.metrics), probe_lr=0.01, finetune_lr=0.01,
                              finetune_momentum=0.1)
    config_oracle.validate_config(replace(cfg, data=data, model=model, metrics=metrics))
    if d.kind == "synthetic" and not math.isfinite(d.scale_max - d.scale_min):
        raise ConfigError("a scale range past float64", field="data.scale_max")
    if cfg.fed.eval_cadence > cfg.fed.rounds:
        raise ConfigError("no round is evaluated", field="fed.eval_cadence")


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
            "c2df05499c131c1a80a0eb52ea1594e4b50ef440382c4aff56e601185d9e4f21",
    },
    "iid-control": {
        "iid-control":
            "3cfe7f9ae389acf9fe67dff26df4816a0c77cf111a7bbeecfe7761c93e872e8b",
    },
    "personalization-classifier": {
        "personalization-classifier":
            "f0806e602974210e1db9717968e68cce844965f036c7b8eb4b73535b9d137c04",
    },
    "personalization-successive": {
        "personalization-successive-k0":
            "871f8478c789843454024ed573a9f4d3b25d7e7c2834af39e408c62190a7a361",
        "personalization-successive-k1":
            "e28ca6d6380338a28f57cf2b0dc43f57e5e44b8713837013eff56fd518182d5b",
        "personalization-successive-k2":
            "4d5f7a11cda9beb1a81eda54c34ba3e0e728554fe9427f3ef25a84286feae138",
        "personalization-successive-k3":
            "d9a06b6ea437c7794771632e5d82b1c1a09899e33567039f702649d3a32eb4cf",
        "personalization-successive-k4":
            "0512a7820be51c4fcbb17f7f9b0bdf97fa6ed7f13fee4cb66f2710763bc5e127",
        "personalization-successive-k5":
            "f446cc0bcf8759fe5200a4a10d2f4b4df56273ad4bf0584d4885ec4cfe4361b4",
        "personalization-successive-k6":
            "5a3bda45492d9ead5bbdad579c5c79b71f830dc5fa2b981d3dd75637c4d4100e",
    },
    "personalization-skip": {
        "personalization-skip-l1":
            "228ae263580e673851473ae6a3c2b5c19dbf0055d410192305c52daff2df21ab",
        "personalization-skip-l2":
            "dc42366a6dc84cf5122c6f068cf0962a7b04abf16c7c126ac4eede020390e0d1",
        "personalization-skip-l3":
            "41854455e44bce6d58fbd032217336faaa2716a424396b37172660ffdd7dee99",
        "personalization-skip-l4":
            "3f6c4e3a54c1264200b5819f5a39aa6fa40c3bd5a39299639eb6ff04d8c3449e",
        "personalization-skip-l5":
            "5d093eb448d19489f43f46521864c10a352f8f9c97671bcecbffb8a52c465fe7",
        "personalization-skip-l6":
            "1e0f4cbdc5b393e01456fc138159551e1352f4dd55138fc590717c33f532bdf4",
    },
    "pretrained": {
        "pretrained":
            "b747dfde0608f47ece121b09287ba4256db449756029d7f8ca0a9230ecb36da0",
        "pretrained-random-init":
            "9323c5d225a688a6d659090b18c066d612876dfa3840dde30fed883dd9da32f4",
    },
    "finetune": {
        "finetune":
            "a2ceb8d548e94f47e431213503416d79b46cd4da29f3e292fe2205311dcc2f90",
    },
    "local-epochs-ablation": {
        "local-epochs-e5-r20":
            "3ba2b6d72a35190318ec345f5b3dc2bbe5e4e4b72c72e4a2b7be12aae9fcb2af",
        "local-epochs-e10-r10":
            "e60aa701fb89b243a04ecc7a74d55ba97688b730cc4014a73271a582ff49d347",
        "local-epochs-e20-r5":
            "e972ebdd3cb3d8921f7c48a3b312074682df021d95bfadd95826258711093196",
    },
    "residual-ablation": {
        "residual-off":
            "d22dfd42afb8875238c319289cd347561517415bb11cdce6cfcfb74c759c05e8",
        "residual-on":
            "c37d561a1f3d2b73e2a7bc9ad3629f4c0782691d26aaf3dcb32ef4aa09cfc03d",
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
