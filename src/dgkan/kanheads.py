"""Grouped-RBF KAN layers, the stacked per-domain detector head, the two
non-local baseline heads, and the small trainable feature extractor.

The two baselines share one shape, d_in -> hidden -> d_out: an MLP (affine ->
silu -> affine) and KAT's group-rational KAN (Yang & Wang 2024,
arXiv:2409.10594), one module ``GrKanHead`` that puts a learnable rational
activation, shared within each group of input dimensions, in front of each
of the two affine maps.  The MLP head and the feature extractor are the
same network, ``SiluMlp``.

Layer conventions used throughout:

* inputs are float64 batches of shape (N, d_in);
* ``forward`` is read-only and computes values only; ``forward_cached``
  additionally returns the cache consumed by ``backward``.  ``SiluMlp``'s
  ``forward`` streams blocks of ``FORWARD_BLOCK_ROWS`` rows through both
  gemms and an in-place silu, so it holds its (N, d_out) output plus one
  block.  Its bytes equal the whole-batch forward's on the pinned OpenBLAS
  0.3.31 only, which ``test_byte_oracles.py``'s ``test_streamed_forward``
  checks;
* ``backward(dY, cache)`` returns ``(dX, grad_vec)`` where ``grad_vec``
  lines up with ``param_vector()`` so one Adam state per module suffices.
  Every backward reads the forward's values only from its cache (besides
  the module's weights), re-gathering and recomputing none, and sums a
  group's parameter gradient over its dimensions with ``np.bincount``;
* a layer's parameter vector is its ``PARAMS`` arrays, ravelled and
  concatenated in that order (``ParamArrays``).  The module stores that
  vector once, as the float64 array ``params``, and each ``PARAMS`` array is
  a view into it: ``adam_update`` steps the vector in place,
  ``set_param_vector`` writes into it in place, and ``param_vector`` returns
  a copy.  Every constructor copies the arrays it is given into a vector
  of its own, never a view of another module's, and rejects a non-finite
  entry; ``DgkdHead`` holds no vector and no task ids: it is its layers in
  order, each keeping its own vector, and a layer's task is its position.
  A run keeps one head, which ``add_task_layer`` grows in place;
* the group-rational formulas of ``GrKanHead`` are written once, in
  ``_rational_affine`` and ``_rational_affine_grad``, which it calls once
  per layer;
* the grouped-Gaussian formulas of the DG-KD layers are written once, in
  ``_gaussians``, ``_gaussian_input_grad`` and ``_gaussian_param_grad``,
  which ``DgLayer`` calls with its own arrays and ``DgkdHead``'s
  ``forward_cached`` and ``backward`` with all its layers stacked.
  ``DgkdHead.forward`` goes layer by layer through ``DgLayer.forward``, so
  its Gaussians never grow with the number of layers; both paths add the
  per-layer terms with one ``sum(axis=0)`` over a (T, ...) stack, so they
  agree bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from .numcore import AdamState, ContractViolation, RngStream, adam_step, check_finite

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
    """Per-group mean and std of a finite (N, d_in) sample, each over all rows
    and the group's dimensions (``group_index_map``), as two (groups,) arrays."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ContractViolation("group statistics require a non-empty (N, d_in) feature sample")
    check_finite(feats, "group statistics sample")
    gmap = group_index_map(feats.shape[1], groups)
    mean, std = np.empty(groups), np.empty(groups)
    for g in range(groups):
        block = feats[:, gmap == g]          # one block at a time keeps the peak small
        mean[g], std[g] = block.mean(), block.std()
    return mean, std


class ParamArrays:
    """A module whose trainable parameters are the arrays named in ``PARAMS``,
    each a view into the one flat float64 vector ``params``.

    A constructor sets the ``PARAMS`` attributes as arrays and then calls
    ``_bind()``, which copies them into a fresh vector, so a module never
    shares memory with the arrays it was given and no entry is non-finite
    (the error names the module and the array).  Copies (``copy.deepcopy``,
    pickling) rebuild the views into the copy's own vector in
    ``__setstate__``.  Subclasses override neither method.
    """

    PARAMS: tuple[str, ...] = ()

    def _bind(self, params: np.ndarray | None = None) -> None:
        """Make each ``PARAMS`` array, at its current shape, a view of its
        slice of ``params``; by default a fresh vector holding their values."""
        if params is None:
            params = np.concatenate([getattr(self, name).ravel() for name in self.PARAMS])
        self.params = params
        for name, view in zip(self.PARAMS, self._views(params)):
            setattr(self, name, check_finite(view, f"{type(self).__name__} {name}"))

    def _views(self, params: np.ndarray) -> list[np.ndarray]:
        """A view per ``PARAMS`` array of its slice of the last axis of
        ``params``; a (T, n_params) stack of vectors gives (T, ...) views."""
        lead, i, views = params.shape[:-1], 0, []
        for name in self.PARAMS:
            shape = getattr(self, name).shape
            size = math.prod(shape)
            views.append(params[..., i:i + size].reshape(lead + shape))
            i += size
        return views

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind(self.params)

    def _constrain(self) -> None:
        """Restore the parameter invariants after an update (none by default)."""

    def n_params(self) -> int:
        return self.params.size

    def param_vector(self) -> np.ndarray:
        return self.params.copy()

    def set_param_vector(self, vec: np.ndarray) -> None:
        """Write ``vec`` into the parameter vector in place; a vector of the
        wrong length raises before anything is written."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.params.size:
            raise ContractViolation(f"{type(self).__name__} parameter vector has length "
                                    f"{vec.size}, expected {self.params.size}")
        self.params[:] = vec.ravel()
        self._constrain()

    def adam_update(self, grads: np.ndarray, opt: AdamState) -> None:
        """One Adam step of the parameter vector, in place."""
        adam_step(self.params, grads, opt)
        self._constrain()


class DgLayer(ParamArrays):
    """One domain's grouped-RBF layer: y = W @ [phi_group(i)(x_i)]_i.

    Each of the g groups shares a single (center, width) pair across its
    dimensions; W is a dense (d_out, d_in) mixing matrix; all three must be
    finite.  The layer knows nothing of its domain: in a ``DgkdHead`` that is
    its position.  It starts trainable; ``add_task_layer`` freezes it in
    place once the next domain arrives.
    """

    PARAMS = ("W", "centers", "widths")

    def __init__(self, d_in: int, d_out: int, groups: int,
                 W: np.ndarray, centers: np.ndarray, widths: np.ndarray):
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.groups = int(groups)
        self.group_of = group_index_map(d_in, groups)
        self.W = np.asarray(W, dtype=np.float64).reshape(d_out, d_in)
        self.centers = np.asarray(centers, dtype=np.float64).reshape(groups)
        self.widths = np.maximum(np.asarray(widths, dtype=np.float64).reshape(groups), SIGMA_MIN)
        self.frozen = False
        self._bind()

    @classmethod
    def from_features(cls, features: np.ndarray, d_out: int, groups: int,
                      rng: RngStream) -> "DgLayer":
        """Initialize a layer over the region occupied by ``features``.

        Centers are per-group feature means, widths per-group feature
        standard deviations clamped to [0.05, 2.0], W uniform in (-0.1, 0.1).
        """
        centers, spread = group_stats(features, groups)
        d_in = np.shape(features)[1]
        W = rng.uniform(-0.1, 0.1, size=(d_out, d_in))
        widths = np.clip(spread, SIGMA_INIT_LO, SIGMA_INIT_HI)
        return cls(d_in, d_out, groups, W, centers, widths)

    def _constrain(self) -> None:
        # width clamp keeps every Gaussian well defined after any update
        np.maximum(self.widths, SIGMA_MIN, out=self.widths)

    # -- forward / backward -------------------------------------------------

    def forward(self, X: np.ndarray) -> np.ndarray:
        X = _as_batch(X, self.d_in, "DgLayer input")
        # z is dropped before the matmul: a projection's forward runs over
        # the whole replay memory
        return _gaussians(X, self.centers[self.group_of], self.widths[self.group_of])[0] @ self.W.T

    def forward_cached(self, X: np.ndarray):
        X = _as_batch(X, self.d_in, "DgLayer input")
        s = self.widths[self.group_of]
        phi, z = _gaussians(X, self.centers[self.group_of], s)
        return phi @ self.W.T, (phi, z, s)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        phi, z, s = cache
        dY = np.asarray(dY, dtype=np.float64).reshape(phi.shape[0], self.d_out)
        dX, common = _gaussian_input_grad(dY, self.W, phi, z, s)
        return dX, _gaussian_param_grad(dY, common, phi, z, s, self.group_of, self.groups)


# The grouped-Gaussian math of a layer Y = phi @ W^T, for one layer (2-D
# arrays) or a stack (W (T, d_out, d_in); c, s (T, 1, d_in); phi, z (T, N, d_in)).

def _gaussians(X: np.ndarray, c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi, z): z = (X - c) / s and phi = exp(-z^2 / 2), with c and s the
    per-dimension centers and widths.  phi is (z * -0.5) * z, the bytes of
    -0.5 * z * z, built in its own buffer: callers cache z."""
    z = X - c
    z /= s
    phi = z * -0.5
    phi *= z
    return np.exp(phi, out=phi), z


def _gaussian_input_grad(dY, W, phi, z, s) -> tuple[np.ndarray, np.ndarray]:
    """dX = (dY W) phi (-z / s), and the factor (dY W) phi that
    ``_gaussian_param_grad`` reuses."""
    common = dY @ W
    common *= phi
    dX = np.negative(z)
    dX /= s
    dX *= common
    return dX, common


def _gaussian_param_grad(dY, common, phi, z, s, group_of, groups) -> np.ndarray:
    """One layer's (dW, dcenters, dwidths) as its parameter vector; a group's
    center and width gradients sum over its dimensions."""
    term = np.divide(z, s)                 # one buffer for both terms
    term *= common
    dc_dim = term.sum(axis=0)
    np.multiply(z, z, out=term)
    term /= s
    term *= common
    ds_dim = term.sum(axis=0)
    return np.concatenate([(dY.T @ phi).ravel(),
                           np.bincount(group_of, weights=dc_dim, minlength=groups),
                           np.bincount(group_of, weights=ds_dim, minlength=groups)])


class DgkdHead:
    """Detector head: elementwise sum of one grouped-RBF layer per domain.

    The k-th layer (from 1) belongs to domain k: a layer's task is its
    position, and the layers carry no task ids.  Every layer below the
    active (last) one is frozen, so training touches only the newest
    layer's parameters while the frozen Gaussians keep responding in their
    own regions.

    The head is its ordered list of layers, each the only owner of its
    parameter vector; building a head leaves the given layers as they are.
    ``forward_cached`` and ``backward``, which training needs every layer's
    cache for, stack the vectors into one (T, n_params) array, view it as
    W (T, d_out, d_in), centers and widths (T, groups), evaluate every
    layer's Gaussians with one broadcast exp and every layer with one
    batched matmul, and sum the per-layer outputs and input gradients over
    the layer axis.  The parameter gradient is the active layer's, from the
    last slice.  The read-only ``forward`` runs one ``DgLayer.forward`` per
    layer and sums their stacked (T, N, d_out) outputs the same way, so it
    holds one layer's Gaussians, never the (T, N, d_in) stack.
    """

    def __init__(self, d_in: int, d_out: int, groups: int, layers: list[DgLayer] | None = None):
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.groups = int(groups)
        self.group_of = group_index_map(self.d_in, self.groups)
        self.layers: list[DgLayer] = list(layers) if layers else []
        for layer in self.layers:
            if (layer.d_in, layer.d_out, layer.groups) != (self.d_in, self.d_out, self.groups):
                raise ContractViolation("all head layers must share (d_in, d_out, groups)")

    @property
    def active_task(self) -> int:
        return len(self.layers)

    @property
    def active_layer(self) -> DgLayer:
        return self.layers[-1]

    def _checked(self, X: np.ndarray) -> np.ndarray:
        X = _as_batch(X, self.d_in, "DgkdHead input")
        if not self.layers:
            raise ContractViolation("head has no layers; add a task layer first")
        return X

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Values only, one layer at a time, so at most one layer's (N, d_in)
        Gaussians are alive at once; the outputs are summed as
        ``forward_cached`` sums them."""
        X = self._checked(X)
        return np.array([layer.forward(X) for layer in self.layers]).sum(axis=0)

    def forward_cached(self, X: np.ndarray):
        X = self._checked(X)
        # np.take gathers C-contiguous (T, d_in) arrays, so phi is (T, N, d_in)
        # in C order and each layer's matmul sees the layout DgLayer's does
        stack = np.array([layer.params for layer in self.layers])
        W, centers, widths = self.active_layer._views(stack)
        s = np.take(widths, self.group_of, axis=1)[:, None, :]
        phi, z = _gaussians(X, np.take(centers, self.group_of, axis=1)[:, None, :], s)
        return (phi @ W.transpose(0, 2, 1)).sum(axis=0), (W, phi, z, s)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        """Input gradient flows through every layer; parameter gradients are
        returned for the active (unfrozen) layer only."""
        W, phi, z, s = cache
        dY = np.asarray(dY, dtype=np.float64).reshape(phi.shape[1], self.d_out)
        dX, common = _gaussian_input_grad(dY, W, phi, z, s)
        return dX.sum(axis=0), _gaussian_param_grad(
            dY, common[-1], phi[-1], z[-1], s[-1], self.group_of, self.groups)

    def n_params(self) -> int:
        return self.active_layer.n_params()

    def param_vector(self) -> np.ndarray:
        return self.active_layer.param_vector()

    def _trainable_layer(self) -> DgLayer:
        if self.active_layer.frozen:
            raise ContractViolation("active layer is frozen")
        return self.active_layer

    def set_param_vector(self, vec: np.ndarray) -> None:
        self._trainable_layer().set_param_vector(vec)

    def adam_update(self, grads: np.ndarray, opt: AdamState) -> None:
        self._trainable_layer().adam_update(grads, opt)


def add_task_layer(head: DgkdHead, features: np.ndarray, rng: RngStream) -> None:
    """Grow ``head`` in place for a new domain: freeze every existing layer
    and append a fresh, trainable one, initialized over the supplied
    (finite, non-empty) feature sample; its position is the new task.

    The new layer is built before anything changes, so a raise leaves the
    head as it was.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ContractViolation("add_task_layer requires a non-empty feature sample")
    if feats.shape[1] != head.d_in:
        raise ContractViolation(f"feature dim {feats.shape[1]} != head d_in {head.d_in}")
    new = DgLayer.from_features(feats, head.d_out, head.groups, rng)
    for layer in head.layers:
        layer.frozen = True
    head.layers.append(new)


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
        w_bar = layer.W[:, layer.group_of == group_index].mean()
        phi, _ = _gaussians(xs, layer.centers[group_index], layer.widths[group_index])
        vals += w_bar * phi
    return vals


# ``SiluMlp.forward`` streams blocks of FORWARD_BLOCK_ROWS rows and runs the
# silu over pieces of SILU_BLOCK_ROWS rows inside each, so its hidden
# activations stay a few hundred rows deep whatever the batch.  A block's
# pre-activation (256 KiB at the extractor's width of 64) is twice glibc's
# default mmap threshold: the first whole-task forward maps and frees it, and
# glibc then raises the threshold above the two 128 KiB contrastive matrices
# of every training step.  256-row blocks sit at the threshold, and in some
# heap layouts each step then mapped those matrices anew (up to 68 faults).
FORWARD_BLOCK_ROWS = 512
SILU_BLOCK_ROWS = 256


def _sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(z) and the buffer 1 + e, with e = exp(-|z|): the sigmoid is
    1/(1+e) for z >= 0 and e/(1+e) below; e <= 1, so max(e, z >= 0) picks
    the numerator."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    sig = np.maximum(e, z >= 0)
    e += 1.0
    sig /= e
    return sig, e


def _silu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid-weighted linear unit and its derivative; the slope
    sig * (1 + z * (1 - sig)) is built in ``_sigmoid``'s 1 + e buffer."""
    sig, e = _sigmoid(z)
    slope = np.subtract(1.0, sig, out=e)
    slope *= z
    slope += 1.0
    slope *= sig
    return z * sig, slope


class SiluMlp(ParamArrays):
    """affine -> silu -> affine, d_in -> hidden -> d_out.  ``forward`` is
    value-only and streams row blocks: it holds the (N, d_out) output plus
    one block's hidden activations, never an (N, hidden) buffer once N is
    two blocks or more."""

    PARAMS = ("W1", "b1", "W2", "b2")

    def __init__(self, W1, b1, W2, b2):
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.W2 = np.asarray(W2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.hidden, self.d_in = self.W1.shape
        self.d_out = self.W2.shape[0]
        self._bind()

    @classmethod
    def init(cls, d_in: int, d_out: int, hidden: int, rng: RngStream):
        """Glorot-uniform weights, zero biases."""
        a1 = np.sqrt(6.0 / (d_in + hidden))
        a2 = np.sqrt(6.0 / (hidden + d_out))
        return cls(rng.uniform(-a1, a1, (hidden, d_in)), np.zeros(hidden),
                   rng.uniform(-a2, a2, (d_out, hidden)), np.zeros(d_out))

    def _hidden(self, X: np.ndarray) -> np.ndarray:
        """The pre-activation X W1^T + b1 of a checked batch, the bias added
        in place (as ``_out`` adds b2).  The helpers are untraced, so
        ``forward`` and ``forward_cached`` keep separate spans."""
        z1 = X @ self.W1.T
        z1 += self.b1
        return z1

    def _out(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        Y = np.matmul(h, self.W2.T, out=out)
        Y += self.b2
        return Y

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Values only, streamed over row blocks: each block runs both gemms,
        its silu in place ``SILU_BLOCK_ROWS`` rows at a time, then writes its
        rows of the one (N, d_out) output.  Blocks are
        ``FORWARD_BLOCK_ROWS`` rows and the last takes in the short tail, so
        the working set is the output plus one block of fewer than
        2 * ``FORWARD_BLOCK_ROWS`` rows, and a batch shorter than two blocks
        is one block.  The bytes equal the whole-batch forward's because
        OpenBLAS 0.3.31 gives a gemm over >= 256 rows of a batch the bytes of
        the whole-batch gemm, by no guarantee: ``test_byte_oracles.py``'s
        ``test_streamed_forward`` is the check."""
        X = _as_batch(X, self.d_in, f"{type(self).__name__} input")
        n = X.shape[0]
        Y = np.empty((n, self.d_out))
        for start in range(0, max(n - FORWARD_BLOCK_ROWS, 0) + 1, FORWARD_BLOCK_ROWS):
            rows = slice(start, start + FORWARD_BLOCK_ROWS if n - start >= 2 * FORWARD_BLOCK_ROWS
                         else n)
            z1 = self._hidden(X[rows])
            for piece_start in range(0, z1.shape[0], SILU_BLOCK_ROWS):
                piece = z1[piece_start:piece_start + SILU_BLOCK_ROWS]
                piece *= _sigmoid(piece)[0]
            self._out(z1, out=Y[rows])
        return Y

    def forward_cached(self, X: np.ndarray):
        X = _as_batch(X, self.d_in, f"{type(self).__name__} input")
        h, dh = _silu(self._hidden(X))
        return self._out(h), (X, h, dh)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        X, h, dh = cache
        dY = np.asarray(dY, dtype=np.float64).reshape(X.shape[0], self.d_out)
        dW2 = dY.T @ h
        db2 = dY.sum(axis=0)
        dz1 = dY @ self.W2
        dz1 *= dh
        dW1 = dz1.T @ X
        db1 = dz1.sum(axis=0)
        dX = dz1 @ self.W1
        return dX, np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


# The benchmark's tracer times methods per class (it wraps ``cls.__dict__``
# entries), so each ``SiluMlp`` subclass binds the shared methods in its own
# body to keep the extractor's and the head's spans apart.

class MlpHead(SiluMlp):
    """Non-local baseline: one set of global weights, d_in -> hidden -> d_out."""

    forward, forward_cached, backward = SiluMlp.forward, SiluMlp.forward_cached, SiluMlp.backward
    param_vector, set_param_vector = SiluMlp.param_vector, SiluMlp.set_param_vector


# Rational coefficients (a p row and a q row) of the two initial
# activations of the group-rational head.  The silu pair is the least-squares
# fit of x * sigmoid(x) on 1201 evenly spaced points of [-3, 3]; its largest
# error there is 0.0062.
RATIONAL_IDENTITY_P = (0.0, 1.0, 0.0, 0.0)
RATIONAL_SILU_P = (0.0023568576, 0.5, 0.24234191, 0.034195499)
RATIONAL_SILU_Q = (0.26151672, 0.0)


# The group-rational math of one layer Y = R @ W^T + b, R = P(X) / Q(X), with
# per-group rational coefficients p (groups, 4) and q (groups, 2) gathered to
# the input dimensions by ``group_of``.

def _rational_affine(X, W, b, pcoef, qcoef, group_of):
    """The layer's output and the cache (X, x^2, p, q, P, Q, R) its gradient
    reads, p and q being the coefficients gathered to the input dimensions."""
    p = pcoef[group_of]                    # (d_in, 4) broadcast per dimension
    q = qcoef[group_of]                    # (d_in, 2)
    x2 = X * X
    P = p[:, 0] + p[:, 1] * X + p[:, 2] * x2 + p[:, 3] * x2 * X
    Q = 1.0 + (q[:, 0] * X) ** 2 + (q[:, 1] * x2) ** 2
    R = P / Q
    return R @ W.T + b, (X, x2, p, q, P, Q, R)


def _rational_affine_grad(dY, cache, W, group_of, groups):
    """dX and the layer's (dW, db, dpcoef, dqcoef), each raveled; a group's
    coefficient gradients sum over its dimensions."""
    X, x2, p, q, P, Q, R = cache
    dR = dY @ W                            # (N, d_in)
    ratio = dR * (-P / (Q * Q))
    # dR/dp_m = x^m / Q and dR/dq = -P/Q^2 * dQ/dq, summed over rows, then over each
    # group's dimensions; order="F" ravels the (terms, groups) sums as (groups, terms)
    group_sums = lambda terms: np.ravel([np.bincount(group_of, weights=t.sum(axis=0),
                                                     minlength=groups) for t in terms], order="F")
    dpcoef = group_sums([dR / Q, dR * X / Q, dR * x2 / Q, dR * x2 * X / Q])
    dqcoef = group_sums([ratio * 2.0 * q[:, 0] * x2, ratio * 2.0 * q[:, 1] * x2 * x2])
    Pprime = p[:, 1] + 2.0 * p[:, 2] * X + 3.0 * p[:, 3] * x2
    Qprime = 2.0 * q[:, 0] ** 2 * X + 4.0 * q[:, 1] ** 2 * x2 * X
    dX = dR * (Pprime * Q - P * Qprime) / (Q * Q)
    return dX, [(dY.T @ R).ravel(), dY.sum(axis=0), dpcoef, dqcoef]


class GrKanHead(ParamArrays):
    """Non-local baseline: KAT's GR-KAN (Yang & Wang 2024, arXiv:2409.10594)
    at the MLP head's shape, rational -> affine -> rational -> affine.

    Two group-rational layers, (d_in -> hidden) and (hidden -> d_out), each
    a per-group shared rational activation and then an affine map, as KAT
    swaps the MLP of a transformer block for a GR-KAN of the same width.
    A group's rational is r(x) = P(x)/Q(x) with P cubic in its p row and
    Q = 1 + (q[0] x)^2 + (q[1] x^2)^2 in its q row, which is strictly
    positive, so each activation is pole-free by construction.  Q depends on
    q only through q^2, so a q entry that is exactly 0 gets a zero gradient
    and stays 0.  A layer's group count is its number of coefficient rows.
    """

    PARAMS = ("W1", "b1", "p1", "q1", "W2", "b2", "p2", "q2")

    def __init__(self, W1, b1, p1, q1, W2, b2, p2, q2):
        for name, array in zip(self.PARAMS, (W1, b1, p1, q1, W2, b2, p2, q2)):
            setattr(self, name, np.asarray(array, dtype=np.float64))
        self.hidden, self.d_in = self.W1.shape
        self.d_out = self.W2.shape[0]
        self.group_of1 = group_index_map(self.d_in, len(self.p1))
        self.group_of2 = group_index_map(self.hidden, len(self.p2))
        self._bind()

    @classmethod
    def init(cls, d_in: int, d_out: int, hidden: int, groups: int, rng: RngStream) -> "GrKanHead":
        """Initialized as KAT initializes a GR-KAN that replaces an MLP: the
        head starts as the MLP head drawn from the same ``rng``.  The affine
        maps are that head's weights, the first rational is the identity
        (P(x) = x, Q = 1) and the second is the rational fit of the MLP's
        silu.  The zero q entries of both stay 0, so the first activation
        trains as a cubic."""
        mlp = MlpHead.init(d_in, d_out, hidden, rng)
        rows = lambda coef: np.tile(coef, (groups, 1))
        return cls(mlp.W1, mlp.b1, rows(RATIONAL_IDENTITY_P), np.zeros((groups, 2)),
                   mlp.W2, mlp.b2, rows(RATIONAL_SILU_P), rows(RATIONAL_SILU_Q))

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self.forward_cached(X)[0]

    def forward_cached(self, X: np.ndarray):
        X = _as_batch(X, self.d_in, "GrKanHead input")
        H, cache1 = _rational_affine(X, self.W1, self.b1, self.p1, self.q1, self.group_of1)
        Y, cache2 = _rational_affine(H, self.W2, self.b2, self.p2, self.q2, self.group_of2)
        return Y, (cache1, cache2)

    def backward(self, dY: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        cache1, cache2 = cache
        dY = np.asarray(dY, dtype=np.float64).reshape(cache2[0].shape[0], self.d_out)
        dH, grads2 = _rational_affine_grad(dY, cache2, self.W2, self.group_of2, len(self.p2))
        dX, grads1 = _rational_affine_grad(dH, cache1, self.W1, self.group_of1, len(self.p1))
        return dX, np.concatenate(grads1 + grads2)


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
        """Deep, independent copy (used for the frozen teacher); the
        constructor copies the arrays into a vector of its own."""
        return FeatureExtractor(self.W1, self.b1, self.W2, self.b2)


def _as_batch(X: np.ndarray, dim: int, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ContractViolation(f"{what} must be an (N, {dim}) batch, got shape {X.shape}")
    return X
