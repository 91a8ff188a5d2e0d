"""Final-state diagnostics of a finished run, read from its directory with no
training (``dgkan probe``); ``dgkan.cli`` imports this module inside that
verb only, so a run never compiles it."""
from pathlib import Path

import numpy as np

from .cli import _check_digests, _read_utf8, _run_config, build_stream, load_model, parse_scores_csv
from .continual import accuracy, auc, average_forgetting, check_labels
from .fskdcp import domain_class
from .kanheads import DgkdHead, _gaussians
from .numcore import ContractViolation, check_finite
from .synthbench import dataset


def best_threshold_accuracy(logits, labels) -> float:
    """The highest accuracy (%) of any cut of the sorted ``logits``; it reads
    the labels, so it is an upper bound and a diagnostic, never a method."""
    z = check_finite(np.asarray(logits, dtype=np.float64).ravel(), "threshold logits")
    order = np.argsort(z, kind="stable")
    y, zs = check_labels(labels, z.size, "threshold labels")[order], z[order]
    # a cut after i rows is right on the negatives below it and the positives above it
    right = np.concatenate([[0], np.cumsum(1 - 2 * y)]) + y.sum()
    return float(right[np.concatenate([[True], zs[1:] != zs[:-1], [True]])].max() / z.size * 100.0)


def task_scores(head, features: list, labels: list) -> list[dict]:
    """Per task k (from 1): accuracy at logit 0 and at the best threshold, AUC,
    and for a DG-KD head the accuracy of ``layers[:k]``, the head task k left."""
    rows = [{"task": k, "acc": accuracy(z, y), "auc": auc(z, y),
             "best_threshold_acc": best_threshold_accuracy(z, y)}
            for k, (z, y) in enumerate(zip(map(head.forward, features), labels), start=1)]
    if isinstance(head, DgkdHead):
        for row, F, y in zip(rows, features, labels):
            prefix = DgkdHead(head.d_in, head.d_out, head.groups, head.layers[:row["task"]])
            row["prefix_head_acc"] = accuracy(prefix.forward(F), y)
    return rows


def locality_ratios(head: DgkdHead, features: list) -> list[float]:
    """Per layer k, its mean Gaussian response on domain k's features over
    the mean of its mean responses on the other domains'."""
    resp = [[_gaussians(F, layer.centers[layer.group_of], layer.widths[layer.group_of])[0].mean()
             for F in features] for layer in head.layers]
    return [float(r[k] / np.mean(r[:k] + r[k + 1:])) for k, r in enumerate(resp)]


def centroid_probes(features, codes, memory_features, memory_codes, n: int) -> dict:
    """With the n domain-class centroids of the eval ``features`` and of the
    memory's rows: the percentage of eval rows whose nearest centroid is of
    their domain (code // 2), and each memory centroid's distance to its peer."""
    eval_c, memory_c = (np.array([F[c == k].mean(axis=0) for k in range(n)])
                        for F, c in ((features, codes), (memory_features, memory_codes)))
    ids = [float((((features[:, None] - c[None]) ** 2).sum(axis=2).argmin(axis=1) // 2
                  == codes // 2).mean() * 100.0) for c in (eval_c, memory_c)]
    return {"domain_id": dict(zip(("eval_centroids", "memory_centroids"), ids)),
            "memory_centroid_gap": np.linalg.norm(memory_c - eval_c, axis=1).tolist()}


def bhattacharyya_overlap(features: list) -> tuple[float, float]:
    """The Bhattacharyya coefficients of Gaussians fitted per dimension to
    each pair of domains' features: their mean, and the mean of each pair's lowest."""
    mu, var = [F.mean(axis=0) for F in features], [F.var(axis=0) for F in features]
    bc = np.array([np.sqrt(2.0 * np.sqrt(var[i] * var[j]) / (var[i] + var[j]))
                   * np.exp(-(mu[i] - mu[j]) ** 2 / (4.0 * (var[i] + var[j])))
                   for i in range(len(mu)) for j in range(i + 1, len(mu))])
    return float(bc.mean()), float(bc.min(axis=1).mean())


def probe_run(results_dir) -> dict:
    """Every probe over a finished run whose config, model, scores and memory
    match ``manifest.json``; ContractViolation unless the model recomputes
    the last row of ``scores.csv``."""
    out = Path(results_dir)
    cfg = _run_config(out)
    extractor, head = load_model(out)
    _check_digests(out, ("scores.csv", "memory_final.csv"))
    grid = parse_scores_csv(_read_utf8(out / "scores.csv"))
    memory = np.loadtxt(out / "memory_final.csv", delimiter=",", skiprows=2, ndmin=2)
    stream = build_stream(cfg)
    T = len(stream)
    evals = [dataset(stream, t, "eval") for t in range(T)]
    features, labels = [extractor.forward(X) for X, _ in evals], [y for _, y in evals]
    rows = task_scores(head, features, labels)
    if any([row[m] for row in rows] != grid.row(T, m) for m in ("acc", "auc")):
        raise ContractViolation(f"the model in {out} does not recompute the last row of scores.csv")
    old = [{**row, "diag_acc": grid.entry(k, k, "acc"), "diag_auc": grid.entry(k, k, "auc")}
           for k, row in enumerate(rows[:-1], start=1)]
    mean = lambda key: float(np.mean([row[key] for row in old]))
    codes = np.concatenate([domain_class(t, y) for t, y in enumerate(labels, start=1)])
    result = {"protocol": cfg.protocol, "seed": cfg.seed, "head": cfg.head, "old_tasks": old,
              "summary": {"af_acc": average_forgetting(grid, T, "acc"),
                          "af_auc": average_forgetting(grid, T, "auc"),
                          "threshold_gap": mean("best_threshold_acc") - mean("acc")},
              "overlap": dict(zip(("mean_bc", "best_dim_bc"), bhattacharyya_overlap(features))),
              **centroid_probes(np.vstack(features), codes, memory[:, :-3], memory[:, -3], 2 * T)}
    if isinstance(head, DgkdHead):
        result["summary"]["prefix_head_af"] = mean("diag_acc") - mean("prefix_head_acc")
        result["locality_ratio"] = locality_ratios(head, features)
    return result
