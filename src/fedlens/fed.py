"""Federated averaging with optional per-layer personalization.

Each round every client trains locally for E epochs from its current start
point, the server forms a sample-count-weighted average of the trained
parameter vectors, and every client's next start point is that average with
the coordinates of its personalized layers spliced back in. Those coordinates
never leave the client and are never mixed by the average. Momentum starts
fresh every round.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .analysis import MetricRecord
from .config import personalized_layers
from .data import ClientDataset, balanced_eval_subset
from .dumps import write_round_dumps
from .errors import NumericError, ShapeError
from .metrics import (accuracy, distance_records, extract_tap_features, feature_records,
                      linear_probe, tap_pair_records, walk_taps)
from .nn import Network, mlp_specs, sgd_epochs
from .seeds import derive_seed


def aggregate(rows, counts) -> np.ndarray:
    """Sample-count-weighted mean of parameter vectors.

    Rows are summed in a canonical order (sorted by count, then raw bytes)
    so any input permutation yields bit-identical output, and the result is
    clipped into the elementwise [min, max] envelope of the inputs, which
    keeps the mean convex and makes averaging identical vectors an exact
    no-op. Personalized coordinates are superseded by `splice`, which
    restores each client's own values.
    """
    rows = list(rows)
    if not rows:
        raise ShapeError("nothing to aggregate")
    weights = np.asarray(counts, dtype=np.float64)
    if weights.shape != (len(rows),):
        raise ShapeError("need one sample count per row")
    if not (weights > 0).all():
        raise ShapeError("sample counts must be positive")
    order = sorted(range(len(rows)), key=lambda i: (weights[i], rows[i].tobytes()))
    # the envelope too: which of 0.0 and -0.0 np.minimum returns depends on order
    rows = [rows[i] for i in order]
    total = weights.sum()
    acc = np.zeros_like(rows[0])
    for i, row in zip(order, rows):
        acc += (weights[i] / total) * row
    np.clip(acc, np.minimum.reduce(rows), np.maximum.reduce(rows), out=acc)
    return acc


def splice(shared, trained, local) -> np.ndarray:
    """The shared vector with the client's local coordinates restored bit-exactly.

    `local` is a boolean array over the vector, True where a coordinate
    stays with the client and comes from its `trained` vector.
    """
    return np.where(local, trained, shared)


def client_round_seed(seed: int, client: int, round_index: int) -> int:
    """Seed of one client's local-training stream in one round."""
    return derive_seed(seed, "train", client, round_index)


def pretrain(net: Network, x, labels, epochs: int, lr: float = 0.01,
             momentum: float = 0.5, batch_size: int = 64, seed: int = 0) -> np.ndarray:
    """Train on pooled data and return the resulting parameter vector.

    epochs == 0 returns the current parameters unchanged.
    """
    sgd_epochs(net, x, labels, epochs, lr=lr, momentum=momentum,
               batch_size=batch_size, seed=seed)
    return net.flatten()


def finetune_classifier(model: np.ndarray, arch, x, labels, epochs: int = 10,
                        lr: float = 0.01, momentum: float = 0.1,
                        batch_size: int = 64, seed: int = 0) -> Network:
    """A network of the vector `model` with only the final layer retrained; the
    rest stays bit-exact.

    The penultimate features of the rows of x are computed once, as the
    capture computes a tap (`extract_tap_features` in batch_size-row
    blocks), so a row's features are the same in every epoch. A one-layer
    network holding the classifier trains on them with `sgd_epochs`, and its
    trained parameters are written back. A NumericError names the layer of
    `arch` where it arose.
    """
    net = Network.from_vector(arch, model)
    last = net.num_layers
    fm = extract_tap_features(net, x, labels, last - 1, batch_size)
    tail = net.values[net.layer_slice(last)]
    head = Network.from_vector(net.specs[-1:], tail)
    try:
        sgd_epochs(head, fm.values, fm.labels, epochs, lr=lr, momentum=momentum,
                   batch_size=batch_size, seed=seed)
    except NumericError as exc:
        # the head numbers the classifier 1
        raise NumericError(str(exc).replace("layer 1", f"layer {last}")) from exc
    tail[...] = head.values
    return net


@contextmanager
def _located(where: str):
    """Re-raise a NumericError prefixed with the stage it came from."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"{where}: {exc}") from exc


def _accuracy_records(net: Network, ds: ClientDataset, round_index: int, phase: str):
    return [MetricRecord(round_index, phase, ds.client_id, -1, name,
                         accuracy(net.forward(x), labels))
            for name, x, labels in (("train_acc", ds.train_x, ds.train_labels),
                                    ("test_acc", ds.test_x, ds.test_labels))]


def build_arch(cfg):
    """Layer specs of an ExperimentConfig's network."""
    return mlp_specs(cfg.data.input_dim, cfg.model.hidden, cfg.data.classes,
                     residual=cfg.model.residual, residual_width=cfg.model.residual_width,
                     residual_inner=cfg.model.residual_inner)


def run_federation(cfg, datasets, dump_dir=None) -> list:
    """Run an ExperimentConfig's rounds of train/aggregate/splice with capture;
    returns the sorted records.

    `cfg` has passed `validate_config`; there is one client per dataset.
    Every client starts from the seeded random init, first trained on the
    pooled data for `fed.pretrain_epochs` epochs, none if 0. Clients train one after
    another, then the server aggregates and splices. On evaluation rounds
    (multiples of eval_cadence) each client's locally trained model (phase
    "pre") and its spliced post-aggregation model (phase "post") are
    captured on the client's local evaluation data, with the pre/post
    distances. That data is `eval_per_class` train rows of each class the
    client has, drawn before any training, so a class with fewer rows is a
    ConfigError that ends the run before it trains. The two models walk
    the evaluation rows together one layer at a time (`walk_taps`), so a
    capture holds one pre/post tap pair. In the finetune scenario each post
    model's classifier is retrained and captured as phase "tuned": accuracy
    and the penultimate alignment only. Captures only read the models, so
    neither capture order nor client order affects results. With `dump_dir`
    set, each capture dumps there its feature matrices if
    `output.dump_features` is on and its pre and post models if
    `output.dump_models` is. A NumericError from
    pretraining names that stage; one from a round names the round, and the
    client and stage too: local training, capture or fine-tuning. One from
    the probes names its round.
    """
    fed, mt = cfg.fed, cfg.metrics
    # drawn first, so that a class short of eval_per_class rows fails before
    # any training
    eval_sets = [balanced_eval_subset(ds, mt.eval_per_class,
                                      derive_seed(fed.seed, "evalsubset", ds.client_id))
                 for ds in datasets]
    arch = build_arch(cfg)
    net = Network(arch).init_random(derive_seed(fed.seed, "init"))
    with _located("pretraining"):
        init_vec = pretrain(
            net, np.concatenate([ds.train_x for ds in datasets]),
            np.concatenate([ds.train_labels for ds in datasets]),
            fed.pretrain_epochs, lr=fed.lr, momentum=fed.momentum,
            batch_size=fed.batch_size, seed=derive_seed(fed.seed, "pretrain"))
    num_layers = net.num_layers
    local = np.zeros(init_vec.size, dtype=bool)
    for layer in personalized_layers(fed.personalization, num_layers)[1]:
        local[net.layer_slice(layer)] = True
    tap_layers = mt.taps or range(num_layers)
    counts = [ds.n_train for ds in datasets]
    dump_features = dump_dir is not None and cfg.output.dump_features
    dump_models = dump_dir is not None and cfg.output.dump_models
    m_clients = len(datasets)
    records = []

    def capture(r, m, pair_nets):
        """Record client m's pre and post captures and distances; write their dumps.

        `pair_nets` holds the pre then the post network. The two walk the
        evaluation rows together, and each (pre, post) tap pair is recorded
        and dumped before the walk moves on.
        """
        for net, phase in zip(pair_nets, ("pre", "post")):
            records.extend(_accuracy_records(net, datasets[m], r, phase))
            if dump_models:
                write_round_dumps(dump_dir, r, m, phase, model=net)
        for pair in walk_taps(pair_nets, ("pre", "post"), *eval_sets[m], tap_layers,
                              round_index=r, client=m):
            weights = [net.interface_weight(pair[0].layer + 1) for net in pair_nets]
            records.extend(tap_pair_records(pair, weights))
            if dump_features:
                for fm in pair:
                    write_round_dumps(dump_dir, r, m, fm.phase, fm)
        pre, post = (net.values[None] for net in pair_nets)
        for layer in range(1, num_layers + 1):
            slc = pair_nets[0].layer_slice(layer)
            records.extend(distance_records(pre[:, slc], post[:, slc], r, m, layer,
                                            prefix="param_"))

    # every client starts from the same vector; from_vector copies it
    client_params = [init_vec] * m_clients

    for r in range(1, fed.rounds + 1):
        nets = []
        for m in range(m_clients):
            net = Network.from_vector(arch, client_params[m])
            with _located(f"round {r}, client {m}, local training"):
                sgd_epochs(net, datasets[m].train_x, datasets[m].train_labels,
                           fed.local_epochs, lr=fed.lr, momentum=fed.momentum,
                           batch_size=fed.batch_size,
                           seed=client_round_seed(fed.seed, m, r))
            nets.append(net)
        # the trained networks' own vectors: nothing writes to them from here on
        trained = [net.values for net in nets]
        shared = aggregate(trained, counts)
        client_params = [splice(shared, row, local) for row in trained]

        if r % fed.eval_cadence == 0:
            post_nets = [Network.from_vector(arch, row) for row in client_params]
            for m in range(m_clients):
                with _located(f"round {r}, client {m}, capture"):
                    capture(r, m, (nets[m], post_nets[m]))
                if cfg.scenario == "finetune":
                    with _located(f"round {r}, client {m}, fine-tuning"):
                        tuned = finetune_classifier(
                            client_params[m], arch, datasets[m].train_x,
                            datasets[m].train_labels, epochs=mt.finetune_epochs,
                            batch_size=mt.finetune_batch,
                            seed=derive_seed(fed.seed, "finetune", m, r))
                        t = num_layers - 1
                        records.extend(_accuracy_records(tuned, datasets[m], r, "tuned"))
                        fm = extract_tap_features(tuned, *eval_sets[m], t, phase="tuned",
                                                  round_index=r, client=m)
                        records.extend(feature_records(
                            fm, tuned.interface_weight(t + 1), stats=()))
            if r in mt.probe_rounds:
                with _located(f"round {r}, probes"):
                    records.extend(_probe_records(cfg, num_layers - 1, nets, post_nets,
                                                  datasets, r))

    records.sort(key=MetricRecord.sort_key)
    return records


def _probe_records(cfg, t, pre_nets, post_nets, datasets, r):
    """Linear-probe accuracies on tap t: post model per dataset, pre models on
    foreign data."""
    mt = cfg.metrics
    out = []
    for d, ds in enumerate(datasets):
        def probe(net, tag):
            train_fm = extract_tap_features(net, ds.train_x, ds.train_labels, t)
            test_fm = extract_tap_features(net, ds.test_x, ds.test_labels, t)
            return linear_probe(train_fm, test_fm, epochs=mt.probe_epochs,
                                batch_size=mt.probe_batch,
                                seed=derive_seed(cfg.fed.seed, "probe", r, d, t, tag))

        out.append(MetricRecord(r, "post", d, t, "probe_acc", probe(post_nets[d], "post")))
        for m in range(len(datasets)):
            if m == d:
                continue
            out.append(MetricRecord(r, "pre", d, t, f"probe_acc_m{m}",
                                    probe(pre_nets[m], f"pre{m}")))
    return out
