"""Federated averaging with optional per-layer personalization.

Each round every client trains locally for E epochs from its current start
point, the server forms a sample-count-weighted average of the trained
parameter vectors, and every client's next start point is that average with
its personalized (masked) coordinates spliced back in. Masked coordinates
never leave the client and are never mixed by the average. Momentum starts
fresh every round.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import ClientDataset, balanced_eval_subset
from .dumps import write_round_dumps
from .errors import ConfigError, NumericError, ShapeError
from .metrics import (FEATURE_STATS, MetricRecord, accuracy, distance_records,
                      extract_tap_features, feature_records, linear_probe)
from .nn import Network, ParamVector, sgd_epochs
from .seeds import derive_seed

# (local epochs, rounds) pairs holding the total local-epoch budget at 100
LOCAL_EPOCH_ABLATION = ((5, 20), (10, 10), (20, 5))


@dataclass
class FederationConfig:
    """Knobs of one federated run; `init` is "random" or a ParamVector."""

    num_clients: int
    local_epochs: int = 10
    rounds: int = 50
    lr: float = 0.01
    momentum: float = 0.5
    batch_size: int = 64
    eval_cadence: int = 2
    personalization: str = "none"
    init: object = "random"
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1:
            raise ConfigError("need at least one client", field="fed.num_clients")
        if self.local_epochs < 0:
            raise ConfigError("local epochs must be non-negative", field="fed.local_epochs")
        if self.rounds < 1:
            raise ConfigError("need at least one round", field="fed.rounds")
        if self.eval_cadence < 1:
            raise ConfigError("eval cadence must be positive", field="fed.eval_cadence")
        if self.batch_size < 1:
            raise ConfigError("batch size must be positive", field="fed.batch_size")
        if not self.lr > 0:
            raise ConfigError("learning rate must be positive", field="fed.lr")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)", field="fed.momentum")


@dataclass(frozen=True)
class PersonalizationMask:
    """Per-parameter exclusion mask; True coordinates stay client-local."""

    mode: str
    layers: frozenset
    flags: np.ndarray


@dataclass
class MetricPlan:
    """What to measure at evaluation rounds."""

    tap_layers: tuple = None          # None = every layer input
    eval_per_class: int = 40
    eval_batch_size: int = 256
    distances: bool = True
    probe_rounds: tuple = ()
    probe_taps: tuple = None          # None = penultimate tap only
    probe_epochs: int = 100
    probe_lr: float = 0.01
    probe_batch: int = 64
    finetune_eval: bool = False
    finetune_epochs: int = 10
    finetune_lr: float = 0.01
    finetune_momentum: float = 0.1
    finetune_batch: int = 64
    dump_dir: object = None
    dump_models: bool = False


@dataclass
class RoundState:
    """Snapshot of one round: locally trained, averaged, and spliced vectors."""

    round: int
    pre: list
    shared: ParamVector
    post: list


@dataclass
class RunResult:
    records: list
    eval_rounds: list
    final: RoundState
    seed_table: list
    mask: PersonalizationMask


def parse_personalization(mode) -> tuple:
    """Normalize a personalization mode to (name, payload)."""
    if mode is None:
        return ("none", None)
    if isinstance(mode, tuple):
        return mode
    text = str(mode).strip()
    if text in ("none", ""):
        return ("none", None)
    if text == "classifier":
        return ("classifier", None)
    if text.startswith("successive:"):
        try:
            return ("successive", int(text.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad successive count in {text!r}",
                              field="fed.personalization") from None
    if text.startswith("skip:"):
        body = text.split(":", 1)[1]
        try:
            layers = tuple(sorted({int(p) for p in body.split(",") if p.strip()}))
        except ValueError:
            raise ConfigError(f"bad layer list in {text!r}",
                              field="fed.personalization") from None
        return ("skip", layers)
    raise ConfigError(f"unknown personalization mode {text!r}",
                      field="fed.personalization")


def personalized_layers(mode, num_layers: int) -> tuple:
    """(mode name, frozenset of the 1-based layers a mode keeps client-local).

    "classifier" marks the final layer, successive:k marks layers 1..k
    (k == num_layers keeps every parameter local), skip:a,b marks exactly
    those layers. Counts and layers outside the network are a ConfigError.
    """
    name, payload = parse_personalization(mode)
    if name == "none":
        layers = frozenset()
    elif name == "classifier":
        layers = frozenset({num_layers})
    elif name == "successive":
        k = int(payload)
        if not 0 <= k <= num_layers:
            raise ConfigError(f"successive count {k} out of range 0..{num_layers}",
                              field="fed.personalization")
        layers = frozenset(range(1, k + 1))
    elif name == "skip":
        layers = frozenset(int(p) for p in payload)
        bad = [p for p in layers if not 1 <= p <= num_layers]
        if bad:
            raise ConfigError(f"skip layers {sorted(bad)} out of range 1..{num_layers}",
                              field="fed.personalization")
    else:
        raise ConfigError(f"unknown personalization mode {name!r}",
                          field="fed.personalization")
    return name, layers


def resolve_mask(mode, layout, num_layers: int) -> PersonalizationMask:
    """Turn a personalization mode into a per-parameter boolean mask."""
    name, layers = personalized_layers(mode, num_layers)
    flags = np.zeros(sum(e.size for e in layout), dtype=bool)
    for e in layout:
        if e.layer in layers:
            flags[e.offset:e.offset + e.size] = True
    if name == "successive":
        canonical = f"successive:{len(layers)}"
    elif name == "skip":
        canonical = "skip:" + ",".join(str(p) for p in sorted(layers))
    else:
        canonical = name
    return PersonalizationMask(canonical, layers, flags)


def aggregate(models, counts) -> ParamVector:
    """Sample-count-weighted mean of parameter vectors.

    Models are summed in a canonical order (sorted by count, then raw bytes)
    so any input permutation yields bit-identical output, and the result is
    clipped into the elementwise [min, max] envelope of the inputs, which
    keeps the mean convex and makes averaging identical vectors an exact
    no-op. Masked coordinates are superseded by `splice`, which restores each
    client's own values.
    """
    models = list(models)
    if not models:
        raise ShapeError("nothing to aggregate")
    layout = models[0].layout
    for m in models[1:]:
        if m.layout != layout:
            raise ShapeError("parameter layouts differ across clients")
    weights = np.asarray(counts, dtype=np.float64)
    if weights.shape != (len(models),):
        raise ShapeError("need one sample count per model")
    if not (weights > 0).all():
        raise ShapeError("sample counts must be positive")
    order = sorted(range(len(models)),
                   key=lambda i: (weights[i], models[i].values.tobytes()))
    total = weights.sum()
    acc = np.zeros_like(models[0].values)
    for i in order:
        acc += (weights[i] / total) * models[i].values
    stack = [m.values for m in models]
    np.clip(acc, np.minimum.reduce(stack), np.maximum.reduce(stack), out=acc)
    return ParamVector(acc, layout)


def splice(shared: ParamVector, residue: ParamVector, mask: PersonalizationMask) -> ParamVector:
    """Shared vector with the client's masked coordinates restored bit-exactly."""
    if shared.layout != residue.layout:
        raise ShapeError("shared and residue layouts differ")
    out = shared.values.copy()
    out[mask.flags] = residue.values[mask.flags]
    return ParamVector(out, shared.layout)


def client_round_seed(seed: int, client: int, round_index: int) -> int:
    """Seed of one client's local-training stream in one round."""
    return derive_seed(seed, "train", client, round_index)


def pretrain(net: Network, x, y, epochs: int, lr: float = 0.01,
             momentum: float = 0.5, batch_size: int = 64, seed: int = 0) -> ParamVector:
    """Train on pooled data and return the resulting parameter vector.

    epochs == 0 returns the current parameters unchanged.
    """
    if epochs > 0:
        sgd_epochs(net, x, y, epochs, lr=lr, momentum=momentum,
                   batch_size=batch_size, seed=seed)
    return net.flatten()


def finetune_classifier(model: ParamVector, arch, x, y, epochs: int = 10,
                        lr: float = 0.01, momentum: float = 0.1,
                        batch_size: int = 64, seed: int = 0) -> ParamVector:
    """Retrain only the final layer on local data; the rest stays bit-exact."""
    net = Network.from_vector(arch, model)
    sgd_epochs(net, x, y, epochs, lr=lr, momentum=momentum,
               batch_size=batch_size, seed=seed, train_from=net.num_layers)
    return net.flatten()


@contextmanager
def _located(round_index: int, client: int, stage: str):
    """Re-raise a NumericError with the round, client and stage it came from."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"round {round_index}, client {client}, {stage}: {exc}") from exc


def _accuracy_records(net: Network, ds: ClientDataset, round_index: int, phase: str):
    recs = []
    logits, _ = net.forward(ds.train_x)
    recs.append(MetricRecord(round_index, phase, ds.client_id, -1, "train_acc",
                             accuracy(logits, ds.train_labels)))
    if len(ds.test_x):
        logits, _ = net.forward(ds.test_x)
        recs.append(MetricRecord(round_index, phase, ds.client_id, -1, "test_acc",
                                 accuracy(logits, ds.test_labels)))
    return recs


def run_federation(arch, cfg: FederationConfig, datasets,
                   plan: MetricPlan = None) -> RunResult:
    """Run R rounds of train/aggregate/splice with metric capture.

    Clients train one after another, then the server aggregates and
    splices. On evaluation rounds (multiples of eval_cadence) each client's
    locally trained model (phase "pre") and its spliced post-aggregation
    model (phase "post") are captured on the client's local evaluation
    data, with the pre/post distances. With fine-tuning on, each post
    model's classifier is retrained and captured as phase "tuned": accuracy
    and the penultimate alignment only. Captures only read the models, so
    neither capture order nor client order affects results. A NumericError
    from local training or fine-tuning names its round and client.
    """
    if plan is None:
        plan = MetricPlan()
    if len(datasets) != cfg.num_clients:
        raise ConfigError(f"{cfg.num_clients} clients but {len(datasets)} datasets",
                          field="fed.num_clients")
    template = Network(arch)
    layout = template.layout
    num_layers = template.num_layers
    mask = resolve_mask(cfg.personalization, layout, num_layers)
    if isinstance(cfg.init, ParamVector):
        if cfg.init.layout != layout:
            raise ConfigError("init vector does not match the architecture",
                              field="fed.init")
        init_vec = cfg.init.copy()
    elif cfg.init == "random":
        init_vec = Network(arch).init_random(derive_seed(cfg.seed, "init")).flatten()
    else:
        raise ConfigError(f"unknown init {cfg.init!r}", field="fed.init")

    tap_layers = (tuple(range(num_layers)) if plan.tap_layers is None
                  else tuple(sorted(set(plan.tap_layers))))
    for t in tap_layers:
        if not 0 <= t < num_layers:
            raise ConfigError(f"tap layer {t} out of range 0..{num_layers - 1}",
                              field="metrics.taps")
    probe_taps = ((num_layers - 1,) if plan.probe_taps is None
                  else tuple(sorted(set(plan.probe_taps))))
    eval_sets = [balanced_eval_subset(ds, plan.eval_per_class,
                                      derive_seed(cfg.seed, "evalsubset", ds.client_id))
                 for ds in datasets]
    counts = [ds.n_train for ds in datasets]
    m_clients = cfg.num_clients
    records = []

    def capture(net, m, r, phase, model=None, taps=tap_layers, stats=FEATURE_STATS):
        """Record accuracy and feature metrics of one model; dump pre/post taps."""
        records.extend(_accuracy_records(net, datasets[m], r, phase))
        fms = extract_tap_features(net, eval_sets[m].train_x, eval_sets[m].train_labels,
                                   taps, plan.eval_batch_size, phase=phase,
                                   round_index=r, client=m)
        weights = {t: net.interface_weight(t + 1) for t in fms}
        records.extend(feature_records(fms.values(), weights, stats))
        if plan.dump_dir is not None and phase in ("pre", "post"):
            write_round_dumps(plan.dump_dir, fms, r, m, phase,
                              model if plan.dump_models else None)
        return fms

    client_params = [init_vec.copy() for _ in range(m_clients)]
    seed_table = []
    eval_rounds = []

    for r in range(1, cfg.rounds + 1):
        nets = []
        for m in range(m_clients):
            seed = client_round_seed(cfg.seed, m, r)
            seed_table.append((m, r, seed))
            net = Network.from_vector(arch, client_params[m])
            with _located(r, m, "local training"):
                sgd_epochs(net, datasets[m].train_x, datasets[m].train_y,
                           cfg.local_epochs, lr=cfg.lr, momentum=cfg.momentum,
                           batch_size=cfg.batch_size, seed=seed)
            nets.append(net)
        trained = [net.flatten() for net in nets]
        shared = aggregate(trained, counts)
        new_params = [splice(shared, trained[m], mask) for m in range(m_clients)]

        if r % cfg.eval_cadence == 0:
            eval_rounds.append(r)
            post_nets = [Network.from_vector(arch, pv) for pv in new_params]
            for m in range(m_clients):
                pre_taps = capture(nets[m], m, r, "pre", trained[m])
                post_taps = capture(post_nets[m], m, r, "post", new_params[m])
                if plan.distances:
                    for t in tap_layers:
                        records.extend(distance_records(pre_taps[t], post_taps[t],
                                                        r, m, t))
                    for layer in range(1, num_layers + 1):
                        slc = trained[m].layer_slice(layer)
                        records.extend(distance_records(
                            trained[m].values[slc], new_params[m].values[slc],
                            r, m, layer, prefix="param_"))
                if plan.finetune_eval:
                    with _located(r, m, "fine-tuning"):
                        tuned = finetune_classifier(
                            new_params[m], arch, datasets[m].train_x, datasets[m].train_y,
                            epochs=plan.finetune_epochs, lr=plan.finetune_lr,
                            momentum=plan.finetune_momentum,
                            batch_size=plan.finetune_batch,
                            seed=derive_seed(cfg.seed, "finetune", m, r))
                    capture(Network.from_vector(arch, tuned), m, r, "tuned",
                            taps=(num_layers - 1,), stats=())
            if r in plan.probe_rounds:
                records.extend(_probe_records(cfg, plan, probe_taps, nets, post_nets,
                                              datasets, r))
        client_params = new_params

    records.sort(key=MetricRecord.sort_key)
    final = RoundState(cfg.rounds, trained, shared, new_params)
    return RunResult(records, eval_rounds, final, seed_table, mask)


def _probe_records(cfg, plan, probe_taps, pre_nets, post_nets, datasets, r):
    """Linear-probe accuracies: post model per dataset, pre models on foreign data."""
    out = []
    for t in probe_taps:
        for d, ds in enumerate(datasets):
            if len(ds.test_x) == 0:
                continue

            def probe(net, tag):
                train_fm = extract_tap_features(
                    net, ds.train_x, ds.train_labels, (t,), plan.eval_batch_size)[t]
                test_fm = extract_tap_features(
                    net, ds.test_x, ds.test_labels, (t,), plan.eval_batch_size)[t]
                return linear_probe(train_fm, test_fm, epochs=plan.probe_epochs,
                                    lr=plan.probe_lr, batch_size=plan.probe_batch,
                                    seed=derive_seed(cfg.seed, "probe", r, d, t, tag))

            out.append(MetricRecord(r, "post", d, t, "probe_acc",
                                    probe(post_nets[d], "post")))
            for m in range(cfg.num_clients):
                if m == d:
                    continue
                out.append(MetricRecord(r, "pre", d, t, f"probe_acc_m{m}",
                                        probe(pre_nets[m], f"pre{m}")))
    return out
