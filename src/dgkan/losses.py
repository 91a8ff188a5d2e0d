"""Training objectives: classification, supervised-contrastive separation,
feature distillation, projection alignment, and their weighted sum.

Every loss returns ``(scalar, gradient)`` with the gradient taken w.r.t. the
argument the trainer optimizes through; all are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import ContractViolation, check_finite


@dataclass
class DomainLabeledBatch:
    """Features with per-sample domain-class labels (2T coding) and binary labels."""

    features: np.ndarray
    domain_class: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        self.features = check_finite(np.asarray(self.features, dtype=np.float64), "batch features")
        self.domain_class = np.asarray(self.domain_class, dtype=np.int64)
        self.label = np.asarray(self.label, dtype=np.int64)
        n = self.features.shape[0]
        if self.domain_class.shape != (n,) or self.label.shape != (n,):
            raise ContractViolation("batch label arrays must align with feature rows")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean sigmoid cross-entropy, stable for |logit| up to several hundred."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.shape != y.shape:
        raise ContractViolation(f"bce_loss length mismatch: {z.shape} vs {y.shape}")
    if z.size == 0:
        raise ContractViolation("bce_loss on empty batch")
    # max(z,0) - z*y + log(1 + exp(-|z|))
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    grad = (_sigmoid(z) - y) / z.size
    return float(per.mean()), grad


def supcon_loss(batch: DomainLabeledBatch, tau: float,
                normalize: bool = True) -> tuple[float, np.ndarray]:
    """Supervised contrastive separation over domain-class labels.

    Per anchor the log-term is averaged over all its positives, and the
    denominator sums over negatives only (different domain-class), so the
    value can legitimately be negative.  Anchors lacking a positive or a
    negative are skipped; a batch with a single domain label is an error.
    The gradient is w.r.t. the raw (pre-normalization) features.
    """
    if tau <= 0.0:
        raise ContractViolation("tau must be positive")
    F = batch.features
    d = batch.domain_class
    n = F.shape[0]
    if n < 2:
        raise ContractViolation("supcon_loss needs at least 2 samples")
    if np.unique(d).size < 2:
        raise ContractViolation("supcon_loss: no negatives (single domain label in batch)")

    if normalize:
        norms = np.linalg.norm(F, axis=1)
        if np.any(norms < 1e-12):
            raise ContractViolation("supcon_loss: zero-norm feature row")
        U = F / norms[:, None]
    else:
        U = F

    S = (U @ U.T) / tau
    same = d[:, None] == d[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same

    n_pos = pos_mask.sum(axis=1)
    valid = (n_pos > 0) & neg_mask.any(axis=1)
    if not valid.any():
        raise ContractViolation("supcon_loss: no anchor has both a positive and a negative")
    vi = np.where(valid)[0]
    n_valid = vi.size

    # log-sum-exp over negatives per valid anchor, with max subtraction
    Sv = S[vi]
    negv = neg_mask[vi]
    posv = pos_mask[vi]
    masked = np.where(negv, Sv, -np.inf)
    m = masked.max(axis=1)
    expn = np.exp(masked - m[:, None])         # exp(-inf) = 0 at non-negatives
    denom = expn.sum(axis=1)
    log_D = m + np.log(denom)

    pos_mean = (Sv * posv).sum(axis=1) / n_pos[vi]
    loss = float(np.mean(-pos_mean + log_D))

    # dL/dS[i,j]: -1/(V*|P_i|) on positives, softmax weight / V on negatives
    G = np.zeros_like(S)
    G[vi] = (expn / denom[:, None] - posv / n_pos[vi, None]) / n_valid

    gU = (G + G.T) @ U / tau
    if normalize:
        # back through row normalization: (g - (g.u) u) / ||f||
        proj = (gU * U).sum(axis=1, keepdims=True)
        gF = (gU - proj * U) / norms[:, None]
    else:
        gF = gU
    return loss, gF


def kd_loss(f_teacher: np.ndarray, f_student: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch mean of per-sample MSE between teacher and student features.

    Per-sample MSE averages over feature dimensions, so the weight attached
    to this loss is insensitive to the feature width.
    """
    t = np.asarray(f_teacher, dtype=np.float64)
    s = np.asarray(f_student, dtype=np.float64)
    if t.shape != s.shape:
        raise ContractViolation(f"kd_loss shape mismatch: {t.shape} vs {s.shape}")
    diff = s - t
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def align_loss(projected: np.ndarray, current: np.ndarray) -> tuple[float, np.ndarray]:
    """Projection alignment; same functional form as kd_loss, gradient w.r.t.
    the projected features (the caller routes it into the projection)."""
    p = np.asarray(projected, dtype=np.float64)
    c = np.asarray(current, dtype=np.float64)
    if p.shape != c.shape:
        raise ContractViolation(f"align_loss shape mismatch: {p.shape} vs {c.shape}")
    diff = p - c
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def overall_loss(cls_loss: float, sc_loss: float, kd_loss_value: float, lambda_sc: float,
                 lambda_kd: float) -> float:
    """Weighted training objective: cls + lambda_sc * sc + lambda_kd * kd."""
    total = cls_loss + lambda_sc * sc_loss + lambda_kd * kd_loss_value
    if not np.isfinite(total):
        raise ContractViolation("overall_loss: non-finite component")
    return float(total)
