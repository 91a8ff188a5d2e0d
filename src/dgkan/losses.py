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
    """Features with per-sample domain-class labels (2T coding)."""

    features: np.ndarray
    domain_class: np.ndarray

    def __post_init__(self):
        self.features = check_finite(np.asarray(self.features, dtype=np.float64), "batch features")
        self.domain_class = np.asarray(self.domain_class, dtype=np.int64)
        if self.domain_class.shape != (self.features.shape[0],):
            raise ContractViolation("batch domain_class must align with feature rows")
        if (self.domain_class < 0).any():
            raise ContractViolation("batch domain-class codes must be >= 0")


def bce_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean sigmoid cross-entropy, stable for |logit| up to several hundred."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.shape != y.shape:
        raise ContractViolation(f"bce_loss length mismatch: {z.shape} vs {y.shape}")
    if z.size == 0:
        raise ContractViolation("bce_loss on empty batch")
    # max(z,0) - z*y + log(1 + exp(-|z|)); with e = exp(-|z|) the sigmoid is
    # 1/(1+e) for z >= 0 and e/(1+e) below, and e <= 1 makes max(e, z >= 0)
    # the numerator.  Each chain runs in one buffer, in the order written.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    per = np.maximum(z, 0.0)
    per -= z * y
    per += np.log1p(e)
    grad = np.maximum(e, z >= 0)
    e += 1.0
    grad /= e
    grad -= y
    grad /= z.size
    return float(per.sum() / per.size), grad      # np.mean's bytes, without its wrapper


def supcon_loss(batch: DomainLabeledBatch, tau: float,
                grad_rows: int | None = None) -> tuple[float, np.ndarray]:
    """Supervised contrastive separation over domain-class labels.

    Features are L2-normalized first, so every logit lies in [-1/tau, 1/tau].
    Per anchor the log-term is averaged over all its positives, and the
    denominator sums over negatives only (different domain-class), so the
    value can legitimately be negative.  Anchors lacking a positive or a
    negative are skipped; a batch with a single domain label is an error.
    The gradient is w.r.t. the raw (pre-normalization) features of the
    first ``grad_rows`` rows (all rows by default); rows past them are
    constants to the caller, so their gradient is never built.

    The label counts ``np.bincount(d)`` give the single-label check and
    each anchor's number of positives; the rest runs on the full n x n
    block, two float n x n arrays per call, where the masks only select.
    One domain-class equality matrix gives the negatives (its negation)
    and, with its diagonal cleared, the positives.  The logits
    S = U U^T / tau are reused for the positives' logits, the
    positive term of dL/dS and finally G + G^T; a second buffer holds the
    masked logits, then exp(min(S - m, 0)) times the negatives mask (m the
    row maxima over negatives), the softmax and G = dL/dS.  exp runs on
    finite values only, which is its fast path: the clamp changes nothing
    at negatives, where S <= m, and keeps positives from overflowing
    when 2/tau exceeds exp's range (tau below about 0.0028).  Rows of
    anchors without a positive are zeroed in G and never divide by zero.
    """
    if tau <= 0.0:
        raise ContractViolation("tau must be positive")
    F = batch.features
    d = batch.domain_class
    n = F.shape[0]
    if n < 2:
        raise ContractViolation("supcon_loss needs at least 2 samples")
    r = n if grad_rows is None else int(grad_rows)
    if not 1 <= r <= n:
        raise ContractViolation(f"supcon_loss: grad_rows must be in [1, {n}], got {grad_rows}")
    counts = np.bincount(d)
    if counts.max() == n:
        raise ContractViolation("supcon_loss: no negatives (single domain label in batch)")
    n_pos = counts[d] - 1
    pos = d[:, None] == d[None, :]
    neg = ~pos
    pos.ravel()[::n + 1] = False                # clear the diagonal

    norms = np.sqrt((F * F).sum(axis=1))         # the sums np.linalg.norm(F, axis=1) takes
    if np.any(norms < 1e-12):
        raise ContractViolation("supcon_loss: zero-norm feature row")
    U = F / norms[:, None]

    S = U @ np.ascontiguousarray(U.T)           # a gemm, several times faster than syrk
    S /= tau
    valid = n_pos > 0                          # with two labels, every row has a negative
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise ContractViolation("supcon_loss: no anchor has both a positive and a negative")

    # log-sum-exp over negatives per anchor, with max subtraction
    G = np.where(neg, S, -np.inf)
    m = G.max(axis=1)
    np.subtract(S, m[:, None], out=G)
    np.minimum(G, 0.0, out=G)
    np.exp(G, out=G)
    G *= neg                                   # 0 at non-negatives, as exp(-inf) was
    denom = G.sum(axis=1)
    log_D = m[valid] + np.log(denom[valid])

    np.multiply(S, pos, out=S)
    pos_mean = S.sum(axis=1)[valid] / n_pos[valid]
    loss = float((log_D - pos_mean).sum() / n_valid)

    # dL/dS[i,j]: -1/(V*|P_i|) on positives, softmax weight / V on negatives.
    # The softmax is exactly 0 on positives, so adding -1/|P_i| there is the
    # subtraction softmax - P/|P_i|; elsewhere it adds -0.0, which changes nothing.
    # |P_i| = 0 only on rows without a positive, where nothing is added.
    G /= denom[:, None]
    G += np.multiply(pos, -(1.0 / np.maximum(n_pos, 1))[:, None], out=S)
    G /= n_valid
    if n_valid < n:
        G[~valid] = 0.0

    gU = np.add(G[:r], G.T[:r], out=S[:r]) @ U / tau
    # back through row normalization: (g - (g.u) u) / ||f||
    Ur = U[:r]
    proj = (gU * Ur).sum(axis=1, keepdims=True)
    return loss, (gU - proj * Ur) / norms[:r, None]


def _mse(x: np.ndarray, target: np.ndarray, name: str) -> tuple[float, np.ndarray]:
    """Batch mean of per-sample MSE between ``x`` and ``target``, and its
    gradient w.r.t. ``x``.

    Per-sample MSE averages over feature dimensions, so the weight attached
    to the loss is insensitive to the feature width.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x.shape != target.shape:
        raise ContractViolation(f"{name} shape mismatch: {x.shape} vs {target.shape}")
    diff = x - target
    sq = diff * diff
    loss = float(sq.sum() / sq.size)              # np.mean's bytes, without its wrapper
    diff *= 2.0
    diff /= diff.size
    return loss, diff


# Two entry points, not one function under two names: each term is traced
# and timed on its own.

def kd_loss(f_teacher: np.ndarray, f_student: np.ndarray) -> tuple[float, np.ndarray]:
    """Feature distillation: MSE of the student's features against the
    frozen teacher's, gradient w.r.t. the student features."""
    return _mse(f_student, f_teacher, "kd_loss")


def align_loss(projected: np.ndarray, current: np.ndarray) -> tuple[float, np.ndarray]:
    """Projection alignment: MSE of the projected old features against the
    current ones, gradient w.r.t. the projected features (the caller routes
    it into the projection)."""
    return _mse(projected, current, "align_loss")


def overall_loss(cls_loss: float, sc_loss: float, kd_loss_value: float, lambda_sc: float,
                 lambda_kd: float) -> float:
    """Weighted training objective: cls + lambda_sc * sc + lambda_kd * kd."""
    total = cls_loss + lambda_sc * sc_loss + lambda_kd * kd_loss_value
    if not np.isfinite(total):
        raise ContractViolation("overall_loss: non-finite component")
    return float(total)
