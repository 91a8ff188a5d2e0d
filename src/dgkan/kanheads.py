"""Grouped-RBF KAN layers, the stacked per-domain detector head, the two
non-local baseline heads, and the small trainable feature extractor.

The two baselines share one shape, d_in -> hidden -> d_out: an MLP (affine ->
silu -> affine) and KAT's group-rational KAN (Yang & Wang 2024,
arXiv:2409.10594), which puts a learnable rational activation, shared within
each group of input dimensions, in front of each of the two affine maps.
The MLP head and the feature extractor are the same network, ``SiluMlp``.

Layer conventions used throughout:

* batches are float64 arrays of shape (N, d_in), single samples (d_in,);
* ``forward`` is read-only; ``forward_cached`` additionally returns the
  cache consumed by ``backward``;
* ``backward(dY, cache)`` returns ``(dX, grad_vec)`` where ``grad_vec``
  lines up with ``param_vector()`` so one Adam state per module suffices;
* a layer's parameter vector is its ``PARAMS`` arrays, ravelled and
  concatenated in that order (``ParamArrays``).
"""
from __future__ import annotations

import numpy as np

from .numcore import ContractViolation, RngStream, check_finite

SIGMA_MIN = 1e-3
SIGMA_INIT_LO = 0.05
SIGMA_INIT_HI = 2.0


def group_index_map(d_in: int, groups: int) -> np.ndarray:
    """Dimension -> group assignment; the last group absorbs any remainder."""
    if groups < 1 or groups > d_in:
        raise ContractViolation(f"groups must be in [1, d_in], got g={groups} for d_in={d_in}")
    d_g = d_in // groups
    return np.minimum(np.arange(d_in) // d_g, groups - 1)


def group_stats(features: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group mean and std of an (N, d_in) sample, each over all rows and
    the group's dimensions (``group_index_map``), as two (groups,) arrays."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ContractViolation("group statistics require a non-empty (N, d_in) feature sample")
    gmap = group_index_map(feats.shape[1], groups)
    mean, std = np.empty(groups), np.empty(groups)
    for g in range(groups):
        block = feats[:, gmap == g]          # one block at a time keeps the peak small
        mean[g], std[g] = block.mean(), block.std()
    return mean, std


def _checked_vector(module, vec: np.ndarray) -> np.ndarray:
    """``vec`` as float64, after checking it has ``module.n_params()`` entries."""
    vec = np.asarray(vec, dtype=np.float64)
    expected = module.n_params()
    if vec.size != expected:
        raise ContractViolation(
            f"{type(module).__name__} parameter vector has length {vec.size}, expected {expected}")
    return vec


class ParamArrays:
    """A module whose trainable parameters are the arrays named in ``PARAMS``."""

    PARAMS: tuple[str, ...] = ()

    def n_params(self) -> int:
        return sum(getattr(self, name).size for name in self.PARAMS)

    def param_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel() for name in self.PARAMS])

    def set_param_vector(self, vec: np.ndarray) -> None:
        """Replace each array by a fresh copy of its slice of ``vec``; a vector
        of the wrong length raises before anything is assigned."""
        vec = _checked_vector(self, vec)
        i = 0
        for name in self.PARAMS:
            old = getattr(self, name)
            setattr(self, name, vec[i:i + old.size].reshape(old.shape).copy())
            i += old.size


class DgLayer(ParamArrays):
    """One domain's grouped-RBF layer: y = W @ [phi_group(i)(x_i)]_i.

    Each of the g groups shares a single (center, width) pair across its
    dimensions; W is a dense (d_out, d_in) mixing matrix.
    """

    PARAMS = ("W", "centers", "widths")

    def __init__(self, task_id: int, d_in: int, d_out: int, groups: int,
                 W: np.ndarray, centers: np.ndarray, widths: np.ndarray,
                 frozen: bool = False):
        if task_id < 1:
            raise ContractViolation("task_id must be >= 1")
        self.task_id = int(task_id)
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.groups = int(groups)
        self.group_of = group_index_map(d_in, groups)
        self.W = check_finite(np.asarray(W, dtype=np.float64).reshape(d_out, d_in), "W")
        self.centers = np.asarray(centers, dtype=np.float64).reshape(groups).copy()
        self.widths = np.maximum(np.asarray(widths, dtype=np.float64).reshape(groups), SIGMA_MIN)
        self.frozen = bool(frozen)

    @classmethod
    def from_features(cls, task_id: int, features: np.ndarray, d_out: int, groups: int,
                      rng: RngStream) -> "DgLayer":
        """Initialize a layer over the region occupied by ``features``.

        Centers are per-group feature means, widths per-group feature
        standard deviations clamped to [0.05, 2.0], W uniform in (-0.1, 0.1).
        """
        centers, spread = group_stats(features, groups)
        d_in = np.shape(features)[1]
        W = rng.uniform(-0.1, 0.1, size=(d_out, d_in))
        widths = np.clip(spread, SIGMA_INIT_LO, SIGMA_INIT_HI)
        return cls(task_id, d_in, d_out, groups, W, centers, widths)

    def set_param_vector(self, vec: np.ndarray) -> None:
        super().set_param_vector(vec)
        # width clamp keeps every Gaussian well defined after any update
        np.maximum(self.widths, SIGMA_MIN, out=self.widths)

    # -- forward / backward -------------------------------------------------

    def _phi(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = self.centers[self.group_of]
        s = self.widths[self.group_of]
        z = (X - c) / s
        return np.exp(-0.5 * z * z), z, s

    def forward(self, X: np.ndarray) -> np.ndarray:
        X, squeeze = _as_batch(X, self.d_in, "DgLayer input")
        phi, _, _ = self._phi(X)
        Y = phi @ self.W.T
        return Y[0] if squeeze else Y

    def forward_cached(self, X: np.ndarray):
        X, _ = _as_batch(X, self.d_in, "DgLayer input")
        phi, z, s = self._phi(X)
        return phi @ self.W.T, (X, phi, z, s)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        X, phi, z, s = cache
        dY = np.asarray(dY, dtype=np.float64).reshape(X.shape[0], self.d_out)
        dW = dY.T @ phi
        dphi = dY @ self.W
        common = dphi * phi
        dX = common * (-z / s)
        dc_dim = (common * (z / s)).sum(axis=0)
        ds_dim = (common * (z * z / s)).sum(axis=0)
        dcenters = np.bincount(self.group_of, weights=dc_dim, minlength=self.groups)
        dwidths = np.bincount(self.group_of, weights=ds_dim, minlength=self.groups)
        return dX, np.concatenate([dW.ravel(), dcenters, dwidths])


class DgkdHead:
    """Detector head: elementwise sum of one grouped-RBF layer per domain.

    Layer k carries task-id k; every layer below the active (last) one is
    frozen, so training touches only the newest layer's parameters while the
    frozen Gaussians keep responding in their own regions.

    The frozen layers never change, so their parameters are stacked once,
    when the head is built (``add_task_layer`` builds one per task): W as
    (T-1, d_out, d_in) and the per-dimension centers and widths as
    (T-1, 1, d_in).  Forward and backward evaluate every frozen Gaussian
    with one broadcast exp and every frozen layer with one batched matmul.
    Per-layer outputs and input gradients are then added in layer order
    with the active layer last, which gives the same bytes as a loop over
    ``layers``.  Parameter gradients are computed for the active layer only.
    """

    def __init__(self, d_in: int, d_out: int, groups: int, layers: list[DgLayer] | None = None):
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.groups = int(groups)
        self.layers: list[DgLayer] = list(layers) if layers else []
        for k, layer in enumerate(self.layers, start=1):
            if layer.task_id != k:
                raise ContractViolation("head layers must carry consecutive task ids from 1")
            if (layer.d_in, layer.d_out, layer.groups) != (self.d_in, self.d_out, self.groups):
                raise ContractViolation("all head layers must share (d_in, d_out, groups)")
        frozen = self.layers[:-1]
        # W (T-1, d_out, d_in); per-dimension centers and widths (T-1, 1, d_in)
        self._frozen = None if not frozen else (
            np.stack([l.W for l in frozen]),
            np.stack([l.centers[l.group_of] for l in frozen])[:, None, :],
            np.stack([l.widths[l.group_of] for l in frozen])[:, None, :])

    @property
    def active_task(self) -> int:
        return len(self.layers)

    @property
    def active_layer(self) -> DgLayer:
        self._require_nonempty()
        return self.layers[-1]

    def _require_nonempty(self):
        if not self.layers:
            raise ContractViolation("head has no layers; add a task layer first")

    def _forward(self, X: np.ndarray):
        y, cache_active = self.active_layer.forward_cached(X)
        if self._frozen is None:
            return y, (None, None, cache_active)
        W, c, s = self._frozen
        z = (X - c) / s                                # DgLayer._phi, (T-1, N, d_in)
        phi = np.exp(-0.5 * z * z)
        Y = _sum_in_layer_order(phi @ W.transpose(0, 2, 1), y)
        return Y, (phi, z, cache_active)

    def forward(self, X: np.ndarray) -> np.ndarray:
        self._require_nonempty()
        X, squeeze = _as_batch(X, self.d_in, "DgkdHead input")
        Y, _ = self._forward(X)
        return Y[0] if squeeze else Y

    def forward_cached(self, X: np.ndarray):
        self._require_nonempty()
        X, _ = _as_batch(X, self.d_in, "DgkdHead input")
        return self._forward(X)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        """Input gradient flows through every layer; parameter gradients are
        returned for the active (unfrozen) layer only."""
        self._require_nonempty()
        phi, z, cache_active = cache
        dX, active_grads = self.active_layer.backward(dY, cache_active)
        if phi is not None:
            W, _, s = self._frozen
            dY = np.asarray(dY, dtype=np.float64).reshape(phi.shape[1], self.d_out)
            common = (dY @ W) * phi
            dX = _sum_in_layer_order(common * (-z / s), dX)
        return dX, active_grads

    def n_params(self) -> int:
        return self.active_layer.n_params()

    def param_vector(self) -> np.ndarray:
        return self.active_layer.param_vector()

    def set_param_vector(self, vec: np.ndarray) -> None:
        if self.active_layer.frozen:
            raise ContractViolation("active layer is frozen")
        self.active_layer.set_param_vector(vec)


def _sum_in_layer_order(frozen_terms: np.ndarray, active_term: np.ndarray) -> np.ndarray:
    """frozen_terms[0] + ... + frozen_terms[-1] + active_term, added left to
    right: the order of a loop over the head's layers.  (np.sum may add
    pairwise, and np.add.accumulate is several times slower.)"""
    total = frozen_terms[0].copy()
    for term in frozen_terms[1:]:
        total += term
    return total + active_term


def add_task_layer(head: DgkdHead, features: np.ndarray, rng: RngStream) -> DgkdHead:
    """Freeze every existing layer and append a fresh one for the new domain,
    initialized over the supplied feature sample.

    The layers are frozen in place and shared with the returned head, which
    stacks their parameters in its constructor.  ``head`` itself must not be
    trained any further: its active layer is now frozen, so its
    ``set_param_vector`` raises.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ContractViolation("add_task_layer requires a non-empty feature sample")
    if feats.shape[1] != head.d_in:
        raise ContractViolation(f"feature dim {feats.shape[1]} != head d_in {head.d_in}")
    new = DgLayer.from_features(head.active_task + 1, feats, head.d_out, head.groups, rng)
    for layer in head.layers:
        layer.frozen = True
    return DgkdHead(head.d_in, head.d_out, head.groups, head.layers + [new])


def activation_profile(head: DgkdHead, group_index: int, xs) -> np.ndarray:
    """Composite activation of one group across the scan points ``xs``.

    Each layer contributes mean(W over the group's columns) * phi_k(x); the
    row-mean weighting is a plotting convention, not a training quantity.
    """
    if group_index < 0 or group_index >= head.groups:
        raise ContractViolation(f"group index {group_index} out of range [0, {head.groups})")
    xs = np.asarray(xs, dtype=np.float64)
    vals = np.zeros_like(xs)
    for layer in head.layers:
        cols = layer.group_of == group_index
        w_bar = layer.W[:, cols].mean()
        z = (xs - layer.centers[group_index]) / layer.widths[group_index]
        vals += w_bar * np.exp(-0.5 * z * z)
    return vals


def _silu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid-weighted linear unit and its derivative."""
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return z * sig, sig * (1.0 + z * (1.0 - sig))


class SiluMlp(ParamArrays):
    """affine -> silu -> affine, d_in -> hidden -> d_out."""

    PARAMS = ("W1", "b1", "W2", "b2")

    def __init__(self, W1, b1, W2, b2):
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.W2 = np.asarray(W2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.hidden, self.d_in = self.W1.shape
        self.d_out = self.W2.shape[0]

    @classmethod
    def init(cls, d_in: int, d_out: int, hidden: int, rng: RngStream):
        """Glorot-uniform weights, zero biases."""
        a1 = np.sqrt(6.0 / (d_in + hidden))
        a2 = np.sqrt(6.0 / (hidden + d_out))
        return cls(rng.uniform(-a1, a1, (hidden, d_in)), np.zeros(hidden),
                   rng.uniform(-a2, a2, (d_out, hidden)), np.zeros(d_out))

    def forward(self, X: np.ndarray) -> np.ndarray:
        X, squeeze = _as_batch(X, self.d_in, f"{type(self).__name__} input")
        h, _ = _silu(X @ self.W1.T + self.b1)
        Y = h @ self.W2.T + self.b2
        return Y[0] if squeeze else Y

    def forward_cached(self, X: np.ndarray):
        X, _ = _as_batch(X, self.d_in, f"{type(self).__name__} input")
        z1 = X @ self.W1.T + self.b1
        h, dh = _silu(z1)
        return h @ self.W2.T + self.b2, (X, h, dh)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        X, h, dh = cache
        dY = np.asarray(dY, dtype=np.float64).reshape(X.shape[0], self.d_out)
        dW2 = dY.T @ h
        db2 = dY.sum(axis=0)
        dz1 = (dY @ self.W2) * dh
        dW1 = dz1.T @ X
        db1 = dz1.sum(axis=0)
        dX = dz1 @ self.W1
        return dX, np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


# The benchmark's tracer times methods per class (it wraps ``cls.__dict__``
# entries), so each ``SiluMlp`` subclass binds the shared methods in its own
# body to keep the extractor's and the head's spans apart.

class MlpHead(SiluMlp):
    """Non-local baseline: one set of global weights, d_in -> hidden -> d_out."""

    kind = "mlp"
    forward, forward_cached, backward = SiluMlp.forward, SiluMlp.forward_cached, SiluMlp.backward
    param_vector, set_param_vector = SiluMlp.param_vector, SiluMlp.set_param_vector


# Rational coefficients (P as p0..p3, Q as q1, q2) of the two initial
# activations of the group-rational head.  The silu pair is the least-squares
# fit of x * sigmoid(x) on 1201 evenly spaced points of [-3, 3]; its largest
# error there is 0.0062.
RATIONAL_IDENTITY_P = (0.0, 1.0, 0.0, 0.0)
RATIONAL_SILU_P = (0.0023568576, 0.5, 0.24234191, 0.034195499)
RATIONAL_SILU_Q = (0.26151672, 0.0)


class GrKanLayer(ParamArrays):
    """One group-rational KAN layer: per-group shared rational activation,
    then affine, y = W @ [r_group(i)(x_i)]_i + b.

    r(x) = P(x)/Q(x) with cubic P and Q = 1 + (q1 x)^2 + (q2 x^2)^2, which is
    strictly positive, so the activation is pole-free by construction.  Q
    depends on q only through q^2, so a q that is exactly 0 gets a zero
    gradient and stays 0.  ``GrKanHead`` chains two of these layers.
    """

    PARAMS = ("W", "b", "pcoef", "qcoef")

    def __init__(self, W, b, pcoef, qcoef, groups: int):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.pcoef = np.asarray(pcoef, dtype=np.float64).reshape(groups, 4)
        self.qcoef = np.asarray(qcoef, dtype=np.float64).reshape(groups, 2)
        self.d_out, self.d_in = self.W.shape
        self.groups = groups
        self.group_of = group_index_map(self.d_in, groups)

    def _rational(self, X: np.ndarray):
        p = self.pcoef[self.group_of]          # (d_in, 4) broadcast per dimension
        q = self.qcoef[self.group_of]          # (d_in, 2)
        x2 = X * X
        P = p[:, 0] + p[:, 1] * X + p[:, 2] * x2 + p[:, 3] * x2 * X
        Q = 1.0 + (q[:, 0] * X) ** 2 + (q[:, 1] * x2) ** 2
        return P, Q

    def forward(self, X: np.ndarray) -> np.ndarray:
        X, squeeze = _as_batch(X, self.d_in, "GrKanLayer input")
        P, Q = self._rational(X)
        Y = (P / Q) @ self.W.T + self.b
        return Y[0] if squeeze else Y

    def forward_cached(self, X: np.ndarray):
        X, _ = _as_batch(X, self.d_in, "GrKanLayer input")
        P, Q = self._rational(X)
        R = P / Q
        return R @ self.W.T + self.b, (X, P, Q, R)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        X, P, Q, R = cache
        dY = np.asarray(dY, dtype=np.float64).reshape(X.shape[0], self.d_out)
        p = self.pcoef[self.group_of]
        q = self.qcoef[self.group_of]
        dW = dY.T @ R
        db = dY.sum(axis=0)
        dR = dY @ self.W                       # (N, d_in)
        x2 = X * X
        # dR/dp_m = x^m / Q, accumulated into the dimension's group
        dp_dim = np.stack([dR / Q, dR * X / Q, dR * x2 / Q, dR * x2 * X / Q], axis=-1).sum(axis=0)
        # dR/dq = -P/Q^2 * dQ/dq
        ratio = dR * (-P / (Q * Q))
        dq_dim = np.stack([(ratio * 2.0 * q[:, 0] * x2).sum(axis=0),
                           (ratio * 2.0 * q[:, 1] * x2 * x2).sum(axis=0)], axis=-1)
        dpcoef = np.zeros_like(self.pcoef)
        dqcoef = np.zeros_like(self.qcoef)
        np.add.at(dpcoef, self.group_of, dp_dim)
        np.add.at(dqcoef, self.group_of, dq_dim)
        Pprime = p[:, 1] + 2.0 * p[:, 2] * X + 3.0 * p[:, 3] * x2
        Qprime = 2.0 * q[:, 0] ** 2 * X + 4.0 * q[:, 1] ** 2 * x2 * X
        dX = dR * (Pprime * Q - P * Qprime) / (Q * Q)
        return dX, np.concatenate([dW.ravel(), db, dpcoef.ravel(), dqcoef.ravel()])


class GrKanHead:
    """Non-local baseline: KAT's GR-KAN (Yang & Wang 2024, arXiv:2409.10594)
    at the MLP head's shape, rational -> affine -> rational -> affine.

    A chain of two ``GrKanLayer`` layers, (d_in -> hidden) and
    (hidden -> d_out), both with the same group count, as KAT swaps the MLP
    of a transformer block for a GR-KAN of the same width.  The parameter
    vector is the layers' vectors concatenated in forward order.
    """

    kind = "groupkan"

    def __init__(self, layers: list[GrKanLayer]):
        self.layers = list(layers)
        self.d_in = self.layers[0].d_in
        self.d_out = self.layers[-1].d_out

    @classmethod
    def init(cls, d_in: int, d_out: int, hidden: int, groups: int, rng: RngStream) -> "GrKanHead":
        """Initialized as KAT initializes a GR-KAN that replaces an MLP: the
        head starts as the MLP head drawn from the same ``rng``.  The affine maps are that head's weights, the first
        rational is the identity (P(x) = x, Q = 1) and the second is the
        rational fit of the MLP's silu.  The zero q entries of both stay 0
        (see ``GrKanLayer``), so the first activation trains as a cubic."""
        mlp = MlpHead.init(d_in, d_out, hidden, rng)
        return cls([GrKanLayer(mlp.W1, mlp.b1, np.tile(RATIONAL_IDENTITY_P, (groups, 1)),
                               np.zeros((groups, 2)), groups),
                    GrKanLayer(mlp.W2, mlp.b2, np.tile(RATIONAL_SILU_P, (groups, 1)),
                               np.tile(RATIONAL_SILU_Q, (groups, 1)), groups)])

    def n_params(self) -> int:
        return sum(layer.n_params() for layer in self.layers)

    def param_vector(self) -> np.ndarray:
        return np.concatenate([layer.param_vector() for layer in self.layers])

    def set_param_vector(self, vec: np.ndarray) -> None:
        vec = _checked_vector(self, vec)
        i = 0
        for layer in self.layers:
            layer.set_param_vector(vec[i:i + layer.n_params()])
            i += layer.n_params()

    def forward(self, X: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            X = layer.forward(X)
        return X

    def forward_cached(self, X: np.ndarray):
        caches = []
        for layer in self.layers:
            X, cache = layer.forward_cached(X)
            caches.append(cache)
        return X, caches

    def backward(self, dY: np.ndarray, caches) -> tuple[np.ndarray, np.ndarray]:
        grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dY, g = layer.backward(dY, cache)
            grads.append(g)
        return dY, np.concatenate(grads[::-1])


def make_baseline_head(kind: str, d_in: int, d_out: int, rng: RngStream,
                       hidden: int = 32, groups: int = 4) -> MlpHead | GrKanHead:
    """Baseline head d_in -> hidden -> d_out: "mlp" (affine -> silu -> affine)
    or "groupkan" (two-layer GR-KAN with ``groups`` rational groups in each
    layer, initialized as the "mlp" head drawn from the same ``rng``)."""
    if kind == "mlp":
        return MlpHead.init(d_in, d_out, hidden, rng)
    if kind == "groupkan":
        return GrKanHead.init(d_in, d_out, hidden, groups, rng)
    raise ContractViolation(f"unknown baseline head kind: {kind!r}")


class FeatureExtractor(SiluMlp):
    """The trainable stand-in for a large frozen-vision backbone at desk
    scale: inputs of width d_in = d_x, features of width d_out = d_f."""

    forward, forward_cached, backward = SiluMlp.forward, SiluMlp.forward_cached, SiluMlp.backward
    param_vector, set_param_vector = SiluMlp.param_vector, SiluMlp.set_param_vector

    def snapshot(self) -> "FeatureExtractor":
        """Deep, independent copy (used for the frozen teacher)."""
        return FeatureExtractor(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy())


def _as_batch(X: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    X = np.asarray(X, dtype=np.float64)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != dim:
        raise ContractViolation(f"{what} must have {dim} columns, got shape {X.shape}")
    return X, squeeze
