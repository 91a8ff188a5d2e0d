"""Data-free replay machinery: the replay memory, representative-feature
selection by herding, the residual drift-compensation projection,
exactly-once memory re-projection at task transitions, and jittered
replay-batch augmentation.  ``FeatureMemory`` is the one store of a run's
rows, codes, raw inputs and label layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .kanheads import DgLayer, group_stats
from .losses import DomainLabeledBatch, align_loss
from .numcore import AdamState, ContractViolation, RngStream, check_finite

MEMORY_FORMAT_VERSION = 1


def domain_class(task, label):
    """The 2T domain-class code 2*(task-1) + label of a binary label (0 real,
    1 fake) seen in 1-based ``task``; ``FeatureMemory`` decodes it."""
    return 2 * (task - 1) + label


@dataclass
class FeatureMemory:
    """Stored representative features with their 2T domain-class codes
    (each >= 0) and, with raw replay, the ``inputs`` they were extracted
    from.  The codes stay fixed: a changed memory is a new object.

    ``space_task`` t >= 1 says every row lives in task t's feature space;
    ``project_memory`` advances it and refuses to run twice for the same
    transition.  ``space_task`` 0 says each row lives in the space of its own
    ``source_task`` (data-free replay without drift compensation never moves
    a stored row).  ``label`` and ``source_task`` are decoded from the code.
    """

    features: np.ndarray
    domain_class: np.ndarray
    budget: int
    space_task: int
    inputs: np.ndarray | None = None

    def __post_init__(self):
        self.features = check_finite(np.asarray(self.features, dtype=np.float64), "memory features")
        self.domain_class = np.asarray(self.domain_class, dtype=np.int64)
        m = self.features.shape[0]
        if self.domain_class.shape != (m,):
            raise ContractViolation("memory domain_class must align with feature rows")
        if (self.domain_class < 0).any():
            raise ContractViolation("memory domain-class codes must be >= 0")
        if self.inputs is not None and np.shape(self.inputs)[:1] != (m,):
            raise ContractViolation("memory inputs must align with feature rows")
        if m > self.budget:
            raise ContractViolation(f"memory holds {m} rows, budget is {self.budget}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def label(self) -> np.ndarray:
        return self.domain_class % 2

    @property
    def source_task(self) -> np.ndarray:
        return self.domain_class // 2 + 1

    @cached_property
    def label_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The codes' per-label reduction layout, built once per memory: the
        flattened (domain_class, column) bin of every feature entry, and the
        per-label row counts (at least 1) as an (L, 1) column, L = max code + 1."""
        d_f = self.features.shape[1]
        bins = np.add.outer(self.domain_class * d_f, np.arange(d_f)).ravel()
        return bins, np.maximum(np.bincount(self.domain_class), 1)[:, None]


def label_quotas(counts: dict[int, int], budget: int) -> dict[int, int]:
    """Distribute ``budget`` slots over labels: budget // L each, remainder to
    the earliest labels, capped at the available count with the slack
    redistributed round-robin."""
    labels = sorted(counts)
    quotas = {lbl: 0 for lbl in labels}
    remaining = budget
    while remaining > 0:
        open_labels = [lbl for lbl in labels if quotas[lbl] < counts[lbl]]
        if not open_labels:
            break
        for lbl in open_labels:
            if remaining == 0:
                break
            quotas[lbl] += 1
            remaining -= 1
    return quotas


def herd_indices(features: np.ndarray, quota: int) -> np.ndarray:
    """Greedy mean-matching selection within one label.

    Step k picks the unselected row whose inclusion brings the selected-set
    mean closest to the full mean; ties resolve to the lowest index.  The
    result is exactly that of the direct loop, which scores every free row r
    as d2(r) = ||(s + r)/K - mu||^2 (K = k + 1, s the sum of the rows taken
    so far) and takes the first argmin.

    Filter: with v = s - K*mu, K^2 * d2(r) = ||v||^2 + g(r) where
    g(r) = 2 r.v + ||r||^2, so one mat-vec ``rows @ 2v`` plus the row norms,
    computed once, ranks every row.  A taken row's norm is set to inf.

    Error bound: let u = eps/2 and B = max||r|| + ||s|| + K*||mu||.  The
    computed g (v, a dot product summed in any order, the norm, one add) is
    off by at most E1 = (d_f + 3)*u*B^2 to first order.  The direct
    expression rounds each component (s_j + r_j)/K - mu_j three times and
    then squares and sums it; as |s_j| + |r_j| + K*|mu_j| has norm <= B, K^2
    times its error is at most E2 = (d_f + 6)*u*B^2.  If p is the direct
    loop's pick then d2(p) <= d2(r) for every free r, so the exact
    g(p) <= g(r) + 2*E2, and the computed g(p) <= min g + 2*E1 + 2*E2 <=
    min g + 11*d_f*eps*B^2.  Underflow adds at most about d_f*K^2 times the
    smallest subnormal.  ``limit`` is min g plus 16*d_f times both terms; the
    margin covers the rounding of B and of the limit itself.

    Refine: every free row with g <= limit is scored again with the direct
    expression, and the first argmin in index order is taken (a set of one
    row is taken as it is).  The set holds p, and p is the lowest-index
    minimum over all free rows, so it is the lowest-index minimum of the set
    too: the selection is exact by construction, not by luck.  When the
    limit is not finite (overflow on huge features, or NaN), the set is
    every free row, which is the direct loop itself.
    """
    rows = np.asarray(features, dtype=np.float64)
    n, d_f = rows.shape
    quota = min(quota, n)
    if quota <= 0:
        return np.empty(0, dtype=np.int64)
    mu = rows.mean(axis=0)
    sum_sel = np.zeros(d_f)
    sq_norms = np.einsum("ij,ij->i", rows, rows)
    r_max, mu_norm = math.sqrt(sq_norms.max()), math.sqrt(mu @ mu)
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    free = np.ones(n, dtype=bool)
    score = np.empty(n)
    chosen = np.empty(quota, dtype=np.int64)
    for k in range(quota):
        K = k + 1
        np.dot(rows, 2.0 * (sum_sel - K * mu), out=score)
        score += sq_norms
        bound = r_max + math.sqrt(sum_sel @ sum_sel) + K * mu_norm
        limit = score.min() + 16 * d_f * (eps * bound * bound + K * K * tiny)
        cand = np.flatnonzero(score <= limit if math.isfinite(limit) else free)
        if cand.size == 1:                # a set of one needs no re-check
            idx = int(cand[0])
        else:
            d2 = (((sum_sel + rows[cand]) / K - mu) ** 2).sum(axis=1)
            idx = int(cand[np.argmin(d2)])    # first occurrence wins ties
        chosen[k] = idx
        free[idx] = False
        sq_norms[idx] = np.inf
        sum_sel += rows[idx]
    return chosen


def select_indices(features: np.ndarray, domain_class: np.ndarray, budget: int) -> np.ndarray:
    """Herding-based selection of at most ``budget`` rows, per-label quotas."""
    F = np.asarray(features, dtype=np.float64)
    d = np.asarray(domain_class, dtype=np.int64)
    if F.ndim != 2 or F.shape[0] == 0:
        raise ContractViolation("select_features requires a non-empty feature matrix")
    if d.shape != (F.shape[0],):
        raise ContractViolation("domain-class labels must align with feature rows")
    labels, counts = np.unique(d, return_counts=True)
    if budget < labels.size:
        raise ContractViolation(f"budget {budget} below number of distinct labels {labels.size}")
    quotas = label_quotas(dict(zip(labels.tolist(), counts.tolist())), budget)
    picked: list[np.ndarray] = []
    for lbl in sorted(labels.tolist()):
        rows_idx = np.where(d == lbl)[0]
        local = herd_indices(F[rows_idx], quotas[lbl])
        picked.append(rows_idx[local])
    return np.concatenate(picked)


def select_features(features: np.ndarray, domain_class: np.ndarray, budget: int,
                    space_task: int = 0, inputs: np.ndarray | None = None) -> FeatureMemory:
    """Herding selection as a FeatureMemory tagged with ``space_task``; the
    rows of ``inputs``, when given, follow the same selection."""
    idx = select_indices(features, domain_class, budget)
    if inputs is not None:
        if np.shape(inputs)[:1] != np.shape(features)[:1]:
            raise ContractViolation("select_features: inputs must align with feature rows")
        inputs = np.asarray(inputs, dtype=np.float64)[idx]
    return FeatureMemory(features=np.asarray(features, dtype=np.float64)[idx],
                         domain_class=np.asarray(domain_class, dtype=np.int64)[idx],
                         budget=budget, space_task=space_task, inputs=inputs)


class KdcpProjection:
    """Residual single-layer projection p(f) = f + layer(f) mapping the
    previous task's feature space onto the current one.

    The mixing matrix starts at zero, so a fresh projection is exactly the
    identity map.  It is trained for the transition into ``target_task``,
    so it maps from ``source_task`` = ``target_task`` - 1.
    """

    def __init__(self, layer: DgLayer, target_task: int):
        if layer.d_in != layer.d_out:
            raise ContractViolation("projection layer must map d_f -> d_f")
        self.layer = layer
        self.target_task = int(target_task)

    @property
    def source_task(self) -> int:
        return self.target_task - 1

    @classmethod
    def init(cls, init_features: np.ndarray, groups: int, target_task: int) -> "KdcpProjection":
        """Identity-initialized projection with RBFs placed over ``init_features``.

        Widths start at 4 times the per-group feature spread: wide bumps keep
        the residual correction smooth over the whole occupied region (narrow
        bumps cannot even represent a constant offset).
        """
        centers, spread = group_stats(init_features, groups)
        d_f = np.shape(init_features)[1]
        widths = np.clip(4.0 * spread, 0.5, 10.0)
        layer = DgLayer(d_in=d_f, d_out=d_f, groups=groups,
                        W=np.zeros((d_f, d_f)), centers=centers, widths=widths)
        return cls(layer, target_task)

    def apply(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=np.float64)
        out = self.layer.forward(F)
        out += F                         # the residual, added into the layer's output
        return out

    def apply_cached(self, F: np.ndarray):
        F = np.asarray(F, dtype=np.float64)
        out, cache = self.layer.forward_cached(F)
        out += F
        return out, cache


def train_projection_step(proj: KdcpProjection, f_teacher: np.ndarray, f_student: np.ndarray,
                          opt: AdamState) -> float:
    """One Adam step of the alignment objective on the projection parameters;
    returns the loss before the step.

    Teacher and student features must come from the same raw inputs; only the
    projection layer is updated (the student features are a fixed target).
    """
    t = np.asarray(f_teacher, dtype=np.float64)
    s = np.asarray(f_student, dtype=np.float64)
    if t.shape != s.shape:
        raise ContractViolation(f"projection step shape mismatch: {t.shape} vs {s.shape}")
    projected, cache = proj.apply_cached(t)
    loss, dP = align_loss(projected, s)
    _, grads = proj.layer.backward(dP, cache)
    proj.layer.adam_update(grads, opt)
    return loss


def project_memory(mem: FeatureMemory, proj: KdcpProjection) -> FeatureMemory:
    """Map every stored row through the projection, advancing the space tag.

    Each transition applies exactly once: the memory must still live in the
    projection's source space.
    """
    if mem.space_task != proj.source_task:
        raise ContractViolation(
            f"memory lives in task-{mem.space_task} space; projection maps "
            f"{proj.source_task} -> {proj.target_task} (already applied?)")
    return replace(mem, features=proj.apply(mem.features), space_task=proj.target_task)


def _label_stds(features: np.ndarray, mem: FeatureMemory) -> np.ndarray:
    """Per-label, per-column std of ``features`` (the memory's rows, in any
    space) as an (L, d_f) table, rows labelled by ``mem``'s codes; labels
    absent from the codes get a zero row.

    One pass over the rows: two ``np.bincount`` reductions over the
    flattened bins of ``mem.label_layout``, first the sums and then the
    squared deviations from the label mean.  Both add rows in row order, as
    ``np.std(axis=0)`` does for each label when d_f >= 2, so the table holds
    the same bytes.  (For d_f = 1 np.std sums the single column pairwise,
    and the last bits can differ.)
    """
    bins, counts = mem.label_layout
    n_labels, d_f = counts.shape[0], features.shape[1]
    mean = np.bincount(bins, weights=features.ravel(),
                       minlength=n_labels * d_f).reshape(n_labels, d_f) / counts
    dev = np.take(mean, mem.domain_class, axis=0)
    np.subtract(features, dev, out=dev)              # in place: one (m, d_f) temporary
    dev *= dev
    var = np.bincount(bins, weights=dev.ravel(),
                      minlength=n_labels * d_f).reshape(n_labels, d_f) / counts
    return np.sqrt(var)


def augment_features(mem: FeatureMemory, jitter_scale: float, rng: RngStream,
                     n_samples: int, features: np.ndarray | None = None) -> DomainLabeledBatch:
    """Draw a replay batch of ``n_samples`` rows: pick stored rows uniformly
    (so uniformly within each label) and jitter them with that label's
    diagonal std, read from the ``_label_stds`` table of all the rows, times
    ``jitter_scale``.  A scale of 0 reproduces the rows.

    The rows are ``mem.features``, or ``features`` when given: the memory's
    rows moved to another space (a trainer passes them through its live
    projection), which must be finite and of the memory's shape.
    """
    m = len(mem)
    if m == 0:
        raise ContractViolation("augment_features on empty memory")
    if features is None:
        features = mem.features
    else:
        check_finite(features, "replay features")
        if features.shape != mem.features.shape:
            raise ContractViolation(f"augment_features: rows of shape {features.shape} for a "
                                    f"memory of shape {mem.features.shape}")
    idx = rng.integers(0, m, size=n_samples)
    feats = features[idx]
    drawn_dc = mem.domain_class[idx]
    if jitter_scale > 0.0:
        noise = rng.normal(size=feats.shape)
        jitter = np.take(_label_stds(features, mem), drawn_dc, axis=0)
        jitter *= jitter_scale           # (jitter_scale * std) * noise, in one buffer
        jitter *= noise
        feats += jitter
    return DomainLabeledBatch(features=feats, domain_class=drawn_dc)


def save_memory(mem: FeatureMemory, path) -> None:
    """Write the documented CSV snapshot (metadata line, header, rows)."""
    path = Path(path)
    d_f = mem.features.shape[1]
    lines = [
        f"dgkan_memory,version={MEMORY_FORMAT_VERSION},space_task={mem.space_task},"
        f"budget={mem.budget},d_f={d_f},rows={len(mem)}",
        ",".join(_snapshot_columns(d_f)),
    ]
    codes = np.stack([mem.domain_class, mem.label, mem.source_task], axis=1)
    for row, code in zip(mem.features, codes):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(c)) for c in code]))
    path.write_text("\n".join(lines) + "\n")


def _snapshot_columns(d_f: int) -> list[str]:
    return [f"f{i}" for i in range(d_f)] + ["domain_class", "label", "source_task"]

