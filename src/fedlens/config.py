"""Experiment configuration: plain-text parsing, validation, presets.

The config format is line-oriented: `[section]` headers, `key = value` pairs,
`#` comment lines, blank lines. Unknown sections or keys are hard errors with
line numbers; missing keys take documented defaults. `render_config` emits a
canonical document that parses back to the same configuration, which is what
run manifests embed. Presets are documents in the same format, so every
config, a user's or a preset's, is built by `parse_config`.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

SCENARIOS = ("baseline", "personalization", "pretrained", "finetune",
             "local-epochs-ablation", "residual-ablation")
# feature dumps store round, layer and label as u16
U16_MAX = 0xFFFF
# (local epochs, rounds) pairs holding the total local-epoch budget at 100
LOCAL_EPOCH_ABLATION = ((5, 20), (10, 10), (20, 5))


@dataclass(frozen=True)
class Domain:
    """The values one config field may take.

    `kind` is at_least (at least `arg`), finite, positive (in (0, inf)),
    unit (in [0, 1)), one_of (a member of the tuple `arg`), text (not
    empty, and no note), noteless (no note), entries (every list entry at
    least `arg`) or widths (entries, and at least one). `bound` names the
    values in error messages and in README's rule list.
    """

    kind: str
    arg: object = None

    @property
    def bound(self) -> str:
        arg = ", ".join(self.arg) if self.kind == "one_of" else self.arg
        return _KINDS[self.kind][0].format(arg)

    def holds(self, value) -> bool:
        return _KINDS[self.kind][1](value, self.arg)


# a `#` after whitespace: the format keeps it as part of a value, so a note
# after a path would name another directory
_NOTE = re.compile(r"\s#")
# domain kind -> (bound, test of a value v against the domain's arg a); the
# range tests are written so that NaN fails them
_KINDS = {
    "at_least": ("at least {}", lambda v, a: v >= a),
    "finite": ("finite", lambda v, a: math.isfinite(v)),
    "positive": ("in (0, inf)", lambda v, a: 0.0 < v < math.inf),
    "unit": ("in [0, 1)", lambda v, a: 0.0 <= v < 1.0),
    "one_of": ("one of {}", lambda v, a: v in a),
    "text": ("non-empty text without a # note", lambda v, a: bool(v) and not _NOTE.search(v)),
    "noteless": ("text without a # note", lambda v, a: not _NOTE.search(v)),
    "entries": ("entries at least {}", lambda v, a: all(x >= a for x in v)),
    "widths": ("non-empty, entries at least {}",
               lambda v, a: bool(v) and all(x >= a for x in v)),
}


def _rule(default, kind: str, arg=None):
    """A field with its default and the domain its values must lie in."""
    return field(default=default, metadata={"domain": Domain(kind, arg)})


@dataclass
class DataConfig:
    kind: str = _rule("synthetic", "one_of", ("synthetic", "idx"))
    clients: int = _rule(4, "at_least", 1)
    classes: int = _rule(5, "at_least", 2)
    input_dim: int = _rule(20, "at_least", 1)
    train_per_client: int = 500
    test_per_client: int = 500
    anchor_scale: float = _rule(3.0, "finite")
    within_class_scale: float = _rule(1.0, "positive")
    scale_min: float = _rule(0.5, "finite")
    scale_max: float = _rule(2.0, "finite")
    offset_scale: float = _rule(1.0, "finite")
    rotation: str = _rule("random", "one_of", ("random", "identity"))
    idx_dir: str = _rule("", "noteless")


@dataclass
class ModelConfig:
    hidden: tuple = _rule((32, 32, 32, 32, 16), "widths", 1)
    residual: bool = False
    residual_width: int = _rule(32, "at_least", 0)
    residual_inner: int = _rule(2, "at_least", 1)


@dataclass
class FedSection:
    rounds: int = _rule(30, "at_least", 1)
    local_epochs: int = _rule(10, "at_least", 0)
    lr: float = _rule(0.01, "positive")
    momentum: float = _rule(0.5, "unit")
    batch_size: int = _rule(64, "at_least", 1)
    eval_cadence: int = _rule(2, "at_least", 1)
    personalization: str = "none"
    pretrain_epochs: int = _rule(0, "at_least", 0)
    seed: int = 1


@dataclass
class MetricsConfig:
    taps: tuple = ()                   # empty = every layer input
    eval_per_class: int = _rule(40, "at_least", 1)
    probe_rounds: tuple = _rule((), "entries", 1)
    probe_epochs: int = _rule(100, "at_least", 1)
    probe_batch: int = _rule(64, "at_least", 1)
    finetune_epochs: int = _rule(10, "at_least", 1)
    finetune_batch: int = _rule(64, "at_least", 1)


@dataclass
class OutputConfig:
    dir: str = _rule("runs/out", "text")
    dump_features: bool = False
    dump_models: bool = False


@dataclass
class ExperimentConfig:
    scenario: str = _rule("baseline", "one_of", SCENARIOS)
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    fed: FedSection = field(default_factory=FedSection)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @property
    def num_layers(self) -> int:
        return len(self.model.hidden) + 1


# section name -> its dataclass, in document order
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if f.name != "scenario"}
# `section.key` (or the top-level `scenario`) -> its field, in document order
_FIELDS = {"scenario": fields(ExperimentConfig)[0],
           **{f"{name}.{f.name}": f for name, cls in _SECTIONS.items() for f in fields(cls)}}
# Every rule on a single field: key -> domain, read off the field
# declarations. validate_config checks them in this order, before the rules
# that read several fields.
RULES = {key: f.metadata["domain"] for key, f in _FIELDS.items() if "domain" in f.metadata}

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# value type -> (what its text must be, parser, renderer); bool comes before
# int, its base, and any other value is text as it stands
_TYPES = ((bool, "a boolean", lambda text: _BOOLS[text.lower()],
           lambda v: "true" if v else "false"),
          (int, "an integer", int, str),
          (float, "a number", float, repr),
          (tuple, "a comma-separated integer list",
           lambda text: tuple(int(p) for p in text.split(",") if p.strip()),
           lambda v: ",".join(str(x) for x in v)),
          (object, "text", str, str))


def _type(value):
    """The _TYPES row that parses and renders values like `value`."""
    return next(row for row in _TYPES if isinstance(value, row[0]))


def _parse_value(text: str, template, field: str, line_no: int):
    text = text.strip()
    _, expected, parse, _ = _type(template)
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ConfigError(f"expected {expected}, got {text!r}", field=field,
                          line=line_no) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; unknown sections or keys raise ConfigError."""
    cfg = ExperimentConfig()
    sections = {name: getattr(cfg, name) for name in _SECTIONS}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ConfigError(f"unknown section [{name}]", line=line_no)
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if current is None:
            if key == "scenario":
                cfg.scenario = value.strip()
                continue
            raise ConfigError(f"key {key!r} outside any section", line=line_no)
        dotted = f"{current}.{key}"
        if dotted not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}", field=dotted, line=line_no)
        setattr(sections[current], key,
                _parse_value(value, _FIELDS[dotted].default, dotted, line_no))
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text at offset {exc.start}") from None
    return parse_config(text)


def personalized_layers(mode: str, num_layers: int) -> tuple:
    """(canonical mode, frozenset of the 1-based layers a mode keeps client-local).

    "none" (or an empty mode) marks no layer, "classifier" the final layer,
    successive:k layers 1..k (k == num_layers keeps every parameter local)
    and skip:a,b exactly the listed layers, at least one. The canonical mode
    parses back to the same pair. A malformed mode, or a count or layer
    outside the network, is a ConfigError on fed.personalization.
    """
    text = mode.strip()
    name, colon, arg = text.partition(":")
    if text in ("none", ""):
        return "none", frozenset()
    if text == "classifier":
        return "classifier", frozenset({num_layers})
    if colon and name == "successive":
        try:
            k = int(arg)
        except ValueError:
            raise ConfigError(f"bad successive count in {text!r}",
                              field="fed.personalization") from None
        if not 0 <= k <= num_layers:
            raise ConfigError(f"successive count {k} out of range 0..{num_layers}",
                              field="fed.personalization")
        return f"successive:{k}", frozenset(range(1, k + 1))
    if colon and name == "skip":
        try:
            layers = frozenset(int(p) for p in arg.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"bad layer list in {text!r}",
                              field="fed.personalization") from None
        if not layers:
            raise ConfigError(f"skip names no layer in {text!r}",
                              field="fed.personalization")
        bad = sorted(p for p in layers if not 1 <= p <= num_layers)
        if bad:
            raise ConfigError(f"skip layers {bad} out of range 1..{num_layers}",
                              field="fed.personalization")
        return "skip:" + ",".join(str(p) for p in sorted(layers)), layers
    raise ConfigError(f"unknown personalization mode {text!r}",
                      field="fed.personalization")


# numpy's Generator.normal is a ziggurat: a draw inside its layers stays below
# the last edge r = 3.6541528853610088, and a tail draw is r plus at most
# -log(2**-53) / r < 10.06, since its uniforms have 53 bits; so |draw| < 13.71
NORMAL_DRAW_CEILING = 14.0
DATA_SCALES = ("anchor_scale", "within_class_scale", "scale_min", "scale_max",
               "offset_scale")


def synthetic_reach(d: DataConfig) -> float:
    """Bound on |x| of every synthetic draw and of every step computing it.

    A sample is ((anchor + within_class_scale * g) @ R.T) * scaling + offset,
    with anchor and offset normal draws times their scales and g standard
    normal. Before the rotation each coordinate is at most
    ceiling * (|anchor_scale| + within_class_scale); a random rotation's rows
    have unit norm, so after it at most sqrt(input_dim) times that.
    """
    spread = 1.0
    if d.rotation == "random":
        # an input_dim past float range could not be drawn anyway
        spread = math.sqrt(min(d.input_dim, sys.float_info.max))
    mixed = NORMAL_DRAW_CEILING * spread * (abs(d.anchor_scale) + d.within_class_scale)
    scale = max(abs(d.scale_min), abs(d.scale_max))
    return max(mixed, scale * mixed + NORMAL_DRAW_CEILING * abs(d.offset_scale))


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every rule; raises ConfigError naming the offending field.

    The RULES table comes first, so the rules below, each of which reads
    several fields, see every field inside its domain.
    """
    for key, domain in RULES.items():
        section, _, name = key.rpartition(".")
        value = getattr(getattr(cfg, section) if section else cfg, name)
        if not domain.holds(value):
            raise ConfigError(f"expected {domain.bound}, got {value!r}", field=key)
    d = cfg.data
    if d.kind == "idx" and not d.idx_dir:
        raise ConfigError("idx data needs idx_dir", field="data.idx_dir")
    if d.scale_min > d.scale_max:
        raise ConfigError("scale_min exceeds scale_max", field="data.scale_min")
    if d.kind == "synthetic":
        for key in ("train_per_client", "test_per_client"):
            if getattr(d, key) < d.classes:
                raise ConfigError(f"{key} must be at least classes ({d.classes})",
                                  field=f"data.{key}")
        reach = synthetic_reach(d)
        if not reach <= sys.float_info.max:
            key = max(DATA_SCALES, key=lambda k: abs(getattr(d, k)))
            raise ConfigError(f"data scales let a draw reach {reach:.3g}, past float64's "
                              f"{sys.float_info.max:.3g}", field=f"data.{key}")
        if not math.isfinite(d.scale_max - d.scale_min):
            raise ConfigError("scale_max - scale_min overflows float64", field="data.scale_max")
        # captures read train rows only, and a balanced split gives every
        # class at least train_per_client // classes of them
        rows = d.train_per_client // d.classes
        if cfg.metrics.eval_per_class > rows:
            raise ConfigError(f"eval_per_class exceeds the {rows} train rows each class has",
                              field="metrics.eval_per_class")
    if cfg.output.dump_features and cfg.fed.rounds > U16_MAX:
        raise ConfigError(f"feature dumps store the round as u16, so at most {U16_MAX} "
                          "rounds can be dumped", field="fed.rounds")
    num_layers = cfg.num_layers
    name, _ = personalized_layers(cfg.fed.personalization, num_layers)
    if cfg.scenario == "personalization" and name == "none":
        raise ConfigError("personalization scenario needs a mode",
                          field="fed.personalization")
    for t in cfg.metrics.taps:
        if not 0 <= t < num_layers:
            raise ConfigError(f"tap layer {t} out of range 0..{num_layers - 1}",
                              field="metrics.taps")
    if cfg.fed.eval_cadence > cfg.fed.rounds:
        raise ConfigError(f"eval_cadence exceeds rounds ({cfg.fed.rounds}), so no round "
                          "would be evaluated", field="fed.eval_cadence")


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(render_config(cfg)) == cfg."""
    lines = [f"scenario = {cfg.scenario}", ""]
    for name in _SECTIONS:
        target = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in fields(target):
            value = getattr(target, f.name)
            lines.append(f"{f.name} = {_type(value)[3](value)}")
        lines.append("")
    return "\n".join(lines)


# Desk-scale heterogeneous federation: shared class anchors, per-client
# Haar rotations, low anchor separation and half-split batches so local
# models keep diverging instead of memorizing within the first rounds.
_DESK = """
[data]
anchor_scale = 1.5
scale_min = 1.0
scale_max = 1.0
offset_scale = 0.0
[fed]
batch_size = 250
[metrics]
eval_per_class = 100
"""
# Faster local regime for the mitigation scenarios: stronger class
# separation plus scale/offset shift, so features mature within a few
# rounds and classifier-level effects are visible.
_MATURE = """
[metrics]
eval_per_class = 100
"""
_PERSONALIZED = "scenario = personalization\n" + _DESK + "[fed]\npersonalization = "
_LAYERS = ExperimentConfig().num_layers

# preset name -> its (config name, document) pairs. A document is config text
# that sets only what differs from the defaults; a `scenario` line comes
# first, since the parser reads top-level keys only before the first section,
# and a repeated section's later key overrides the earlier one.
PRESETS = {
    "baseline": [("baseline", _DESK)],
    "iid-control": [("iid-control", _DESK + "[data]\nrotation = identity\n")],
    "personalization-classifier": [
        ("personalization-classifier", _PERSONALIZED + "classifier\n")],
    "personalization-successive": [
        (f"personalization-successive-k{k}", f"{_PERSONALIZED}successive:{k}\n")
        for k in range(_LAYERS + 1)],
    "personalization-skip": [
        (f"personalization-skip-l{layer}", f"{_PERSONALIZED}skip:{layer}\n")
        for layer in range(1, _LAYERS + 1)],
    "pretrained": [
        ("pretrained", "scenario = pretrained\n" + _MATURE + "[fed]\npretrain_epochs = 20\n"),
        ("pretrained-random-init", "scenario = pretrained\n" + _MATURE)],
    "finetune": [
        ("finetune", "scenario = finetune\n" + _DESK
         + "[fed]\nbatch_size = 128\n[metrics]\nfinetune_batch = 8\n")],
    "local-epochs-ablation": [
        (f"local-epochs-e{e}-r{r}", f"scenario = local-epochs-ablation\n{_DESK}[fed]\n"
         f"local_epochs = {e}\nrounds = {r}\neval_cadence = {max(1, 20 // e)}\n")
        for e, r in LOCAL_EPOCH_ABLATION],
    "residual-ablation": [
        (f"residual-{tag}", f"scenario = residual-ablation\n{_DESK}[model]\nresidual = {flag}\n")
        for tag, flag in (("off", "false"), ("on", "true"))],
}


def preset(name: str, seed: int = 1):
    """Named experiment presets; returns a list of (name, config) pairs, each
    parsed from its document with the seed and `runs/<name>` as output dir."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of "
                          f"{', '.join(sorted(PRESETS))}")
    return [(sub_name, parse_config(f"{doc}[fed]\nseed = {seed}\n"
                                    f"[output]\ndir = runs/{sub_name}\n"))
            for sub_name, doc in PRESETS[name]]
