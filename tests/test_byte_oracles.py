"""Byte oracles for the cheaper forms of the training step's numerics.

Each reference below is a frozen copy of the form the library replaced, kept
verbatim in its arithmetic: the library must return the same bytes.

* ``supcon_loss`` runs ``exp`` over clamped finite logits instead of over
  ``-inf`` fills, and adds G + G^T only over the first ``grad_rows`` rows;
  the reference adds it over every row and multiplies the same first rows
  by U.
* ``bce_loss`` and ``_silu`` build the sigmoid from one exp(-|z|).
* ``adam_step`` updates the parameter vector in place.
* ``DgkdHead.forward_cached`` and ``backward`` run all the head's layers as
  one stack of the layers' parameter vectors, through the grouped-Gaussian
  helpers that ``DgLayer`` shares; the reference is the two-path head they
  replaced (the active layer through ``DgLayer``, the frozen layers through
  a stacked copy) and that ``DgLayer``'s own ``_phi`` and ``backward``.
  The head and its reference sum the per-layer terms over the layer axis
  of a (T, ...) stack, the reference its frozen terms and then its active
  one.
  ``DgkdHead.forward`` runs one ``DgLayer.forward`` per layer and sums their
  stacked outputs the same way; its reference is ``forward_cached``'s
  output, and through it the two-path head.
* The step's elementwise kernels run as in-place chains, each operation in
  the order of the expression it replaced (only operands of a commutative
  operation trade places).  The references are those expressions:
  ``_silu`` as one-exp temporaries; ``_gaussians`` as
  ``exp(-0.5 * z * z)``; ``_gaussian_input_grad`` as
  ``(dY @ W) * phi * (-z / s)``; ``_gaussian_param_grad``'s center and
  width terms as ``common * (z / s)`` and ``common * (z * z / s)``;
  ``SiluMlp.forward``, ``forward_cached`` and ``backward`` with biases added
  and ``dh`` applied into fresh arrays (``forward`` runs its silu in place
  over row blocks); ``KdcpProjection.apply`` and ``apply_cached`` as
  ``F + layer(F)``; ``bce_loss`` and the MSE of
  ``kd_loss`` / ``align_loss`` with ``np.mean`` and out-of-place
  gradients; ``augment_features``' jitter as ``jitter_scale * scale *
  noise``; and the trainer's contrastive gate on ``np.unique``, which
  ``np.bincount`` replaced (the codes are >= 0).
* ``SiluMlp.forward`` streams row blocks of ``FORWARD_BLOCK_ROWS`` rows, the
  last one with the short tail, each through both gemms.  The reference is
  the whole-batch forward it replaced.  A gemm over >= 256 rows of a batch
  gives the whole-batch gemm's bytes on OpenBLAS 0.3.31 (64-row blocks do
  not, at the extractor's d_out = 16), by no guarantee: on another BLAS
  build this is the check that fails.
* ``GrKanHead.backward`` reads x^2 and the gathered rational coefficients
  from its forward's cache and sums each group with ``np.bincount``; the
  reference re-gathers the coefficients, recomputes x^2 and sums the
  groups with ``np.stack`` and ``np.add.at``.
* ``GrKanHead.forward_cached`` has no replaced form; its reference is the
  group-rational layer written out one input dimension at a time, each with
  its group's scalar coefficients, then the same affine gemm.
* ``Trainer``'s task start places the projection's RBFs over the one
  extractor forward of the task inputs that also places the new DG-KD
  layer; the reference pool is the teacher's own forward of those inputs
  stacked over the stored rows.
"""
import copy
from collections import Counter

import numpy as np
import pytest

import dgkan.continual
import dgkan.kanheads
import dgkan.losses
from dgkan.continual import Trainer, TrainerConfig
from dgkan.fskdcp import FeatureMemory, KdcpProjection, _label_stds, augment_features
from dgkan.kanheads import (DgkdHead, DgLayer, FeatureExtractor, GrKanHead, MlpHead, SiluMlp,
                            _gaussian_input_grad, _gaussian_param_grad, _gaussians, _sigmoid,
                            _silu, add_task_layer, group_index_map)
from dgkan.losses import DomainLabeledBatch, align_loss, bce_loss, kd_loss, supcon_loss
from dgkan.numcore import AdamState, ContractViolation, RngStream, adam_step
from dgkan.synthbench import dataset, gen_sequence


def supcon_reference(batch, tau, grad_rows=None):
    """The full-block ``supcon_loss`` with ``-inf`` fills, G + G^T built for
    every row and its first ``grad_rows`` rows multiplied by U."""
    F = batch.features
    d = batch.domain_class
    n = F.shape[0]
    r = n if grad_rows is None else grad_rows
    pos = d[:, None] == d[None, :]
    neg = ~pos
    pos.ravel()[::n + 1] = False
    norms = np.sqrt((F * F).sum(axis=1))
    U = F / norms[:, None]
    S = U @ np.ascontiguousarray(U.T)
    S /= tau
    n_pos = pos.sum(axis=1)
    valid = n_pos > 0
    n_valid = int(np.count_nonzero(valid))
    G = np.where(neg, S, -np.inf)
    m = G.max(axis=1)
    G -= m[:, None]
    np.exp(G, out=G)
    denom = G.sum(axis=1)
    log_D = m[valid] + np.log(denom[valid])
    np.multiply(S, pos, out=S)
    pos_mean = S.sum(axis=1)[valid] / n_pos[valid]
    loss = float((log_D - pos_mean).sum() / n_valid)
    G /= denom[:, None]
    G += np.multiply(pos, -(1.0 / np.maximum(n_pos, 1))[:, None], out=S)
    G /= n_valid
    if n_valid < n:
        G[~valid] = 0.0
    gU = np.add(G, G.T, out=S)[:r] @ U / tau
    Ur = U[:r]
    proj = (gU * Ur).sum(axis=1, keepdims=True)
    return loss, (gU - proj * Ur) / norms[:r, None]


def _sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_reference(logits, labels):
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    grad = (_sigmoid_reference(z) - y) / z.size
    return float(per.mean()), grad


def adam_reference(params, grads, state):
    """Out-of-place Adam: new parameters, moments advanced in place."""
    state.step_count += 1
    t = state.step_count
    state.m *= 0.9
    state.m += (1.0 - 0.9) * grads
    state.v *= 0.999
    state.v += (1.0 - 0.999) * grads * grads
    m_hat = state.m / (1.0 - 0.9 ** t)
    v_hat = state.v / (1.0 - 0.999 ** t)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _assert_supcon_bytes(batch, tau, grad_rows):
    loss, grad = supcon_loss(batch, tau, grad_rows=grad_rows)
    ref_loss, ref_grad = supcon_reference(batch, tau, grad_rows)
    assert np.isfinite(loss) and np.isfinite(grad).all()
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    r = len(batch.features) if grad_rows is None else grad_rows
    assert grad.shape == (r, batch.features.shape[1])
    assert grad.tobytes() == ref_grad.tobytes()


def _trainer_shaped(r, t, nb=64, d_f=16, scale=1.0):
    """A batch as the trainer builds it in task t: nb current rows with the
    task's two codes, then nb replayed rows with the codes of tasks < t."""
    cur = 2 * (t - 1) + r.integers(0, 2, nb)
    old = r.integers(0, 2 * (t - 1), nb)
    F = r.normal(loc=r.uniform(-1, 1, d_f), scale=scale, size=(2 * nb, d_f))
    return DomainLabeledBatch(features=F, domain_class=np.concatenate([cur, old]))


class TestSupconMatchesReference:
    @pytest.mark.parametrize("n,labels,d", [(3, 2, 3), (5, 2, 4), (37, 3, 8), (128, 8, 16),
                                            (129, 2, 16), (300, 20, 16)])
    def test_random_batches(self, n, labels, d):
        r = RngStream(5).substream("random", n, labels, d)
        for trial in range(5):
            dc = np.arange(n) % labels if trial == 0 else r.integers(0, labels, n)
            if np.unique(dc).size < 2 or np.bincount(dc).max() < 2:
                continue
            F = r.normal(scale=10.0 ** r.uniform(-2, 1), size=(n, d))
            batch = DomainLabeledBatch(features=F, domain_class=dc)
            tau = float(10.0 ** r.uniform(-1.5, 0))
            for grad_rows in (None, 1, n // 2 or 1, n):
                _assert_supcon_bytes(batch, tau, grad_rows)

    @pytest.mark.parametrize("t", [2, 4, 10])
    def test_trainer_shaped_batches(self, t):
        r = RngStream(7).substream("shaped", t)
        for trial in range(10):
            batch = _trainer_shaped(r, t)
            for grad_rows in (64, 128):
                _assert_supcon_bytes(batch, 0.1, grad_rows)

    def test_logits_beyond_exp_overflow_at_tiny_tau(self):
        # the classes are orthogonal, so at tau = 1e-3 a positive's S - m is
        # about 1000 and would overflow an unclamped exp(S - m)
        r = RngStream(9)
        F = np.zeros((8, 4))
        F[:4, 0] = 5.0
        F[4:, 1] = 5.0
        F += r.normal(scale=1e-3, size=F.shape)
        batch = DomainLabeledBatch(features=F, domain_class=np.repeat([0, 1], 4))
        U = F / np.linalg.norm(F, axis=1, keepdims=True)
        S = U @ U.T / 1e-3
        assert S[:4, :4].min() - np.abs(S[:4, 4:]).max() > 710.0
        for grad_rows in (None, 3):
            _assert_supcon_bytes(batch, 1e-3, grad_rows)

    def test_anchors_without_a_positive(self):
        r = RngStream(11)
        dc = np.array([0, 0, 1, 2, 3, 3, 4, 5, 5, 5])      # codes 1, 2 and 4 occur once
        batch = DomainLabeledBatch(features=r.normal(size=(10, 6)), domain_class=dc)
        for grad_rows in (None, 4, 7):
            _assert_supcon_bytes(batch, 0.2, grad_rows)

    def test_batches_of_a_real_run(self, monkeypatch):
        seen = []

        def capture(batch, tau, grad_rows=None):
            seen.append((batch, tau, grad_rows))
            return supcon_loss(batch, tau, grad_rows=grad_rows)

        monkeypatch.setattr(dgkan.continual, "supcon_loss", capture)
        stream = gen_sequence("four-task", 11, train_n=65, eval_n=32)
        for kw in ({}, {"use_raw_replay": True}):
            trainer = Trainer(TrainerConfig(epochs=2, memory_budget=40, **kw), 11)
            for t in range(3):
                trainer.train_task(*dataset(stream, t, "train"))
        assert {g for *_, g in seen} == {64, 128}    # one-row last batches never have a positive
        for batch, tau, grad_rows in seen:
            _assert_supcon_bytes(batch, tau, grad_rows)

    @pytest.mark.parametrize("grad_rows", [0, 6])
    def test_grad_rows_out_of_range(self, grad_rows):
        batch = DomainLabeledBatch(features=RngStream(1).normal(size=(5, 3)),
                                   domain_class=[0, 0, 1, 1, 1])
        with pytest.raises(ContractViolation, match="grad_rows"):
            supcon_loss(batch, 0.1, grad_rows=grad_rows)


def _logits(r, n):
    """Edge values (signed zeros, exp's subnormal and overflow range), then n
    random logits over five decades."""
    edges = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0]
    return np.concatenate([edges, r.normal(scale=10.0 ** r.uniform(-3, 2.5), size=n)])


class TestSigmoidMatchesReference:
    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_bce_loss(self, n):
        r = RngStream(13).substream("bce", n)
        for trial in range(5):
            z = _logits(r, n)
            y = r.integers(0, 2, z.size)
            loss, grad = bce_loss(z, y)
            ref_loss, ref_grad = bce_reference(z, y)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("shape", [(1,), (64, 1), (64, 32), (1024, 64)])
    def test_silu(self, shape):
        r = RngStream(17).substream("silu", shape)
        for trial in range(5):
            z = _logits(r, int(np.prod(shape)))[:int(np.prod(shape))].reshape(shape)
            _same_bytes(_silu(z), silu_one_exp_reference(z))


class TestAdamInPlaceMatchesReference:
    @pytest.mark.parametrize("n,lr", [(1, 1e-3), (65, 2e-4), (577, 5e-4), (2593, 1e-2)])
    def test_random_steps(self, n, lr):
        r = RngStream(19).substream("adam", n, lr)
        flat = r.normal(size=n + 7)
        params = flat[3:3 + n]                   # a view, as a module's vector can be
        ref = params.copy()
        state, ref_state = AdamState.init(n, lr=lr), AdamState.init(n, lr=lr)
        for k in range(200):
            grads = r.normal(scale=10.0 ** r.uniform(-6, 2), size=n)
            if k % 9 == 4:
                grads[:] = 0.0
            grads[r.integers(0, n, size=n // 4)] = 0.0
            assert adam_step(params, grads, state) is params
            ref = adam_reference(ref, grads, ref_state)
            assert params.tobytes() == ref.tobytes()
            assert state.m.tobytes() == ref_state.m.tobytes()
            assert state.v.tobytes() == ref_state.v.tobytes()
        assert state.step_count == ref_state.step_count == 200

    def test_zero_gradients_leave_params_bit_identical(self):
        params = np.array([0.5, -1.25, 3.0, -0.0, 0.0, 1e-300])
        original = params.tobytes()
        state = AdamState.init(params.size, lr=0.01)
        for _ in range(5):
            adam_step(params, np.zeros(params.size), state)
        assert params.tobytes() == original
        assert adam_reference(params, np.zeros(params.size), AdamState.init(6, 0.01)).tobytes() \
            == original

    @pytest.mark.parametrize("params", [[0.0, 1.0], np.zeros(2, dtype=np.float32)],
                             ids=["list", "float32"])
    def test_rejects_what_it_cannot_update_in_place(self, params):
        with pytest.raises(ContractViolation, match="in place"):
            adam_step(params, np.ones(2), AdamState.init(2, lr=0.1))


def dglayer_phi_reference(layer, X):
    c = layer.centers[layer.group_of]
    s = layer.widths[layer.group_of]
    z = (X - c) / s
    return np.exp(-0.5 * z * z), z, s


def dglayer_backward_reference(layer, dY, cache):
    X, phi, z, s = cache
    dY = np.asarray(dY, dtype=np.float64).reshape(X.shape[0], layer.d_out)
    dW = dY.T @ phi
    dphi = dY @ layer.W
    common = dphi * phi
    dX = common * (-z / s)
    dc_dim = (common * (z / s)).sum(axis=0)
    ds_dim = (common * (z * z / s)).sum(axis=0)
    dcenters = np.bincount(layer.group_of, weights=dc_dim, minlength=layer.groups)
    dwidths = np.bincount(layer.group_of, weights=ds_dim, minlength=layer.groups)
    return dX, np.concatenate([dW.ravel(), dcenters, dwidths])


def dglayer_reference(layer, X, dY):
    """``DgLayer``'s forward and backward, with ``_phi``: (Y, dX, grads)."""
    phi, z, s = dglayer_phi_reference(layer, X)
    dX, grads = dglayer_backward_reference(layer, dY, (X, phi, z, s))
    return phi @ layer.W.T, dX, grads


def _layer_sum_reference(frozen_terms, active_term):
    """The frozen layers' terms, then the active layer's, summed over the
    layer axis."""
    return np.concatenate([frozen_terms, active_term[None]]).sum(axis=0)


def dgkd_head_reference(layers, X, dY):
    """The two-path head: the active (last) layer through ``DgLayer``, the
    frozen layers through their stacked W (T-1, d_out, d_in) and
    per-dimension centers and widths (T-1, 1, d_in).  (Y, dX, grads)."""
    active, frozen = layers[-1], layers[:-1]
    Y, dX, grads = dglayer_reference(active, X, dY)
    if frozen:
        W = np.stack([l.W for l in frozen])
        c = np.stack([l.centers[l.group_of] for l in frozen])[:, None, :]
        s = np.stack([l.widths[l.group_of] for l in frozen])[:, None, :]
        z = (X - c) / s
        phi = np.exp(-0.5 * z * z)
        Y = _layer_sum_reference(phi @ W.transpose(0, 2, 1), Y)
        dY = np.asarray(dY, dtype=np.float64).reshape(phi.shape[1], active.d_out)
        common = (dY @ W) * phi
        dX = _layer_sum_reference(common * (-z / s), dX)
    return Y, dX, grads


def _assert_module_bytes(module, reference, X, dY):
    Y_ref, dX_ref, g_ref = reference
    Y, cache = module.forward_cached(X)
    dX, grads = module.backward(dY, cache)
    assert Y.tobytes() == Y_ref.tobytes()
    assert module.forward(X).tobytes() == Y_ref.tobytes()
    assert dX.tobytes() == dX_ref.tobytes()
    assert grads.tobytes() == g_ref.tobytes()


class TestDgkdHeadMatchesTwoPathReference:
    @pytest.mark.parametrize("d_out", [1, 16])
    def test_one_to_ten_layers(self, d_out):
        r = RngStream(23).substream("dgkd", d_out)
        head = DgkdHead(16, d_out, 4)
        for T in range(1, 11):
            add_task_layer(head, r.normal(loc=T, scale=0.5 + 0.1 * T, size=(40, 16)),
                           r.substream("init", T))
            # move the active layer off its init, as training does
            head.set_param_vector(head.param_vector() + r.normal(scale=0.1, size=head.n_params()))
            for N in (1, 13, 64, 512):             # 512: the eval sets' size
                X = r.normal(loc=T / 2, scale=3.0, size=(N, 16))
                dY = r.normal(size=(N, d_out))
                _assert_module_bytes(head, dgkd_head_reference(head.layers, X, dY), X, dY)

    @pytest.mark.parametrize("N", [1, 13, 64, 500])
    def test_projection_shaped_layer(self, N):
        # d_f -> d_f, one group per dimension, as KdcpProjection builds it
        r = RngStream(29).substream("proj", N)
        layer = DgLayer(16, 16, 16, W=r.normal(scale=0.1, size=(16, 16)),
                        centers=r.normal(size=16), widths=r.uniform(0.5, 4.0, 16))
        X = r.normal(scale=2.0, size=(N, 16))
        dY = r.normal(size=(N, 16))
        _assert_module_bytes(layer, dglayer_reference(layer, X, dY), X, dY)

    def test_calls_of_a_real_run(self, monkeypatch):
        # every head and projection-layer call of a short data-free run,
        # checked against the references at the parameters of the call
        checked = Counter()
        inputs = {}

        def check_forward(kind, reference_of, module, X, Y):
            X = np.asarray(X, dtype=np.float64)
            Y_ref = reference_of(module, X, np.zeros((len(X), module.d_out)))[0]
            assert Y.tobytes() == Y_ref.tobytes()
            checked[kind + "-forward"] += 1
            return X

        def wrap(cls, kind, reference_of):
            forward, forward_cached, backward = cls.forward, cls.forward_cached, cls.backward

            def traced_forward(self, X):       # runs apart from forward_cached
                Y = forward(self, X)
                check_forward(kind + "-read-only", reference_of, self, X, Y)
                return Y

            def traced_forward_cached(self, X):
                Y, cache = forward_cached(self, X)
                inputs[id(cache)] = check_forward(kind, reference_of, self, X, Y)
                return Y, cache

            def traced_backward(self, dY, cache):
                dX, grads = backward(self, dY, cache)
                _, dX_ref, g_ref = reference_of(self, inputs.pop(id(cache)), dY)
                assert dX.tobytes() == dX_ref.tobytes() and grads.tobytes() == g_ref.tobytes()
                checked[kind] += 1
                return dX, grads

            monkeypatch.setattr(cls, "forward", traced_forward)
            monkeypatch.setattr(cls, "forward_cached", traced_forward_cached)
            monkeypatch.setattr(cls, "backward", traced_backward)

        def head_reference(head, X, dY):
            return dgkd_head_reference(head.layers, X, dY)

        wrap(DgkdHead, "head", head_reference)
        wrap(DgLayer, "layer", dglayer_reference)
        stream = gen_sequence("four-task", 11, train_n=65, eval_n=32)
        trainer = Trainer(TrainerConfig(epochs=2, memory_budget=40), 11)
        for t in range(4):
            trainer.train_task(*dataset(stream, t, "train"))
            trainer.evaluate_all([dataset(stream, k, "eval") for k in range(t + 1)])
        # 65 rows in batches of 64 for two epochs: four steps a task; the
        # projection trains from task 2 on, and moves the memory at each of
        # those steps and once at each task end
        assert checked["head"] == checked["head-forward"] == 4 * 4
        assert checked["head-read-only-forward"] == 1 + 2 + 3 + 4    # evaluate_all
        assert checked["layer"] == checked["layer-forward"] == 3 * 4
        # the projection's 3 * 4 + 3, then evaluate_all's head forwards: after
        # task t, t eval sets each through t layers
        assert checked["layer-read-only-forward"] == 3 * 4 + 3 + (1 + 4 + 9 + 16)


# -- the in-place kernels ---------------------------------------------------
# Verbatim copies of the forms the in-place chains replaced.

def silu_one_exp_reference(z):
    e = np.exp(-np.abs(z))
    sig = np.maximum(e, z >= 0) / (1.0 + e)
    return z * sig, sig * (1.0 + z * (1.0 - sig))


def gaussians_reference(X, c, s):
    z = (X - c) / s
    return np.exp(-0.5 * z * z), z


def gaussian_input_grad_reference(dY, W, phi, z, s):
    common = (dY @ W) * phi
    return common * (-z / s), common


def gaussian_param_grad_reference(dY, common, phi, z, s, group_of, groups):
    dc_dim = (common * (z / s)).sum(axis=0)
    ds_dim = (common * (z * z / s)).sum(axis=0)
    return np.concatenate([(dY.T @ phi).ravel(),
                           np.bincount(group_of, weights=dc_dim, minlength=groups),
                           np.bincount(group_of, weights=ds_dim, minlength=groups)])


def silu_mlp_forward_reference(m, X):
    h, _ = silu_one_exp_reference(X @ m.W1.T + m.b1)
    return h @ m.W2.T + m.b2


def silu_mlp_whole_batch_forward_reference(m, X):
    """``SiluMlp.forward`` before it streamed row blocks: both gemms over the
    whole batch, the silu in place one 256-row block at a time."""
    z1 = X @ m.W1.T
    z1 += m.b1
    for start in range(0, z1.shape[0], 256):
        block = z1[start:start + 256]
        block *= _sigmoid(block)[0]
    Y = z1 @ m.W2.T
    Y += m.b2
    return Y


def silu_mlp_forward_cached_reference(m, X):
    z1 = X @ m.W1.T + m.b1
    h, dh = silu_one_exp_reference(z1)
    return h @ m.W2.T + m.b2, (X, h, dh)


def silu_mlp_backward_reference(m, dY, cache):
    X, h, dh = cache
    dY = np.asarray(dY, dtype=np.float64).reshape(X.shape[0], m.d_out)
    dW2 = dY.T @ h
    db2 = dY.sum(axis=0)
    dz1 = (dY @ m.W2) * dh
    dW1 = dz1.T @ X
    db1 = dz1.sum(axis=0)
    dX = dz1 @ m.W1
    return dX, np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


def projection_apply_cached_reference(proj, F):
    """``F + layer.forward_cached(F)[0]`` and the cache, through the
    reference Gaussians; ``apply`` returns the same first element."""
    F = np.asarray(F, dtype=np.float64)
    layer = proj.layer
    s = layer.widths[layer.group_of]
    phi, z = gaussians_reference(F, layer.centers[layer.group_of], s)
    return F + phi @ layer.W.T, (phi, z, s)


def bce_one_exp_reference(logits, labels):
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    e = np.exp(-np.abs(z))
    per = np.maximum(z, 0.0) - z * y + np.log1p(e)
    grad = (np.maximum(e, z >= 0) / (1.0 + e) - y) / z.size
    return float(per.mean()), grad


def mse_reference(x, target):
    diff = x - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def augment_reference(mem, jitter_scale, rng, n_samples, features=None):
    """``augment_features`` without its input checks."""
    features = mem.features if features is None else features
    idx = rng.integers(0, len(mem), size=n_samples)
    feats = features[idx]
    drawn_dc = mem.domain_class[idx]
    if jitter_scale > 0.0:
        noise = rng.normal(size=feats.shape)
        scale = np.take(_label_stds(features, mem), drawn_dc, axis=0)
        feats += jitter_scale * scale * noise
    return feats, drawn_dc


def sc_gate_reference(codes):
    return 2 <= np.unique(codes).size < len(codes)


def _same_bytes(got, ref):
    """Equal bytes (and shapes) of two results: arrays, floats, or tuples of them."""
    if isinstance(ref, tuple):
        assert isinstance(got, tuple) and len(got) == len(ref)
        for g, r in zip(got, ref):
            _same_bytes(g, r)
        return
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def _array_bytes(args):
    """The bytes of every array in ``args``, tuples and lists walked."""
    out = []
    for a in args:
        if isinstance(a, (tuple, list)):
            out.extend(_array_bytes(a))
        elif isinstance(a, np.ndarray):
            out.append(a.tobytes())
    return out


def _gaussian_case(r, stack, N, d_in, d_out, groups):
    """Random inputs of the three grouped-Gaussian helpers, 2-D or stacked
    as ``DgkdHead`` passes them (W (T, d_out, d_in); c, s (T, 1, d_in))."""
    lead = () if stack is None else (stack,)
    mid = () if stack is None else (1,)
    X = r.normal(scale=3.0, size=(N, d_in))
    c = r.normal(size=lead + mid + (d_in,))
    s = r.uniform(0.05, 4.0, size=lead + mid + (d_in,))
    W = r.normal(scale=0.3, size=lead + (d_out, d_in))
    dY = r.normal(size=(N, d_out))
    return X, c, s, W, dY, group_index_map(d_in, groups), groups


class TestInPlaceKernelsMatchReference:
    @pytest.mark.parametrize("shape", [(1,), (4, 64), (64, 64), (64, 32), (1024, 64)])
    def test_silu(self, shape):
        r = RngStream(31).substream("silu", shape)
        for trial in range(5):
            z = _logits(r, int(np.prod(shape)))[:int(np.prod(shape))].reshape(shape)
            kept = z.copy()
            _same_bytes(_silu(z), silu_one_exp_reference(z))
            assert z.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("stack", [None, 1, 4, 10])
    @pytest.mark.parametrize("N,d_in,d_out,groups", [(1, 16, 1, 4), (4, 16, 1, 4),
                                                     (64, 16, 1, 4), (500, 16, 16, 16),
                                                     (13, 5, 3, 2)])
    def test_gaussian_helpers(self, stack, N, d_in, d_out, groups):
        r = RngStream(37).substream("gauss", stack, N, d_in, d_out, groups)
        for trial in range(3):
            X, c, s, W, dY, group_of, g = _gaussian_case(r, stack, N, d_in, d_out, groups)
            kept = [a.copy() for a in (X, c, s, W, dY)]
            phi, z = _gaussians(X, c, s)
            _same_bytes((phi, z), gaussians_reference(X, c, s))
            dX, common = _gaussian_input_grad(dY, W, phi, z, s)
            _same_bytes((dX, common), gaussian_input_grad_reference(dY, W, phi, z, s))
            last = (slice(None),) if stack is None else (-1,)
            args = (dY, common[last], phi[last], z[last], s[last], group_of, g)
            _same_bytes(_gaussian_param_grad(*args), gaussian_param_grad_reference(*args))
            for a, k in zip((X, c, s, W, dY), kept):
                assert a.tobytes() == k.tobytes()

    # row counts on both sides of forward's silu blocks (SILU_BLOCK_ROWS = 256)
    @pytest.mark.parametrize("N,d_in,hidden,d_out", [
        (N, *shape) for N in (1, 2, 4, 64, 128, 255, 256, 257, 1000, 4096)
        for shape in ((8, 64, 16), (16, 32, 1))])
    def test_silu_mlp(self, N, d_in, hidden, d_out):
        r = RngStream(41).substream("mlp", N, d_in, hidden, d_out)
        for cls in (FeatureExtractor, MlpHead):
            m = cls.init(d_in, d_out, hidden, r.substream("init", cls.__name__))
            m.set_param_vector(r.normal(scale=0.5, size=m.n_params()))   # nonzero biases
            X = r.normal(scale=2.0, size=(N, d_in))
            dY = r.normal(size=(N, d_out))
            kept = X.tobytes(), m.params.tobytes()
            Y, cache = m.forward_cached(X)
            _same_bytes((Y, cache), silu_mlp_forward_cached_reference(m, X))
            Y = m.forward(X)
            _same_bytes(Y, silu_mlp_forward_reference(m, X))
            assert (X.tobytes(), m.params.tobytes()) == kept
            assert not any(np.shares_memory(Y, a) for a in (X, m.W1, m.W2))
            _same_bytes(m.backward(dY, cache), silu_mlp_backward_reference(m, dY, cache))

    # row counts on both sides of one, two and many blocks, with and without
    # a tail; the extractor's shapes and the MLP head's
    @pytest.mark.parametrize("N", [0, 1, 63, 255, 256, 257, 511, 512, 513, 1023, 1024, 1535,
                                   1536, 2047, 4096, 4097, 8096])
    @pytest.mark.parametrize("cls,d_in,hidden,d_out", [
        (FeatureExtractor, 8, 64, 16), (FeatureExtractor, 32, 64, 16),
        (FeatureExtractor, 64, 64, 64), (MlpHead, 16, 32, 1)])
    def test_streamed_forward(self, N, cls, d_in, hidden, d_out):
        # each block's gemms give the whole-batch gemms' bytes (OpenBLAS 0.3.31)
        r = RngStream(47).substream("streamed", N, d_in, hidden, d_out)
        m = cls.init(d_in, d_out, hidden, r.substream("init"))
        m.set_param_vector(r.normal(scale=0.5, size=m.n_params()))      # nonzero biases
        X = r.normal(scale=2.0, size=(N, d_in))
        Y = m.forward(X)
        assert Y.shape == (N, d_out)
        _same_bytes(Y, silu_mlp_whole_batch_forward_reference(m, X))

    @pytest.mark.parametrize("N", [1, 4, 64, 500, 4000])
    def test_projection(self, N):
        r = RngStream(43).substream("proj", N)
        init = r.normal(size=(200, 16))
        proj = KdcpProjection.init(init, 16, target_task=2)
        proj.layer.set_param_vector(proj.layer.param_vector()
                                    + r.normal(scale=0.1, size=proj.layer.n_params()))
        F = r.normal(scale=1.5, size=(N, 16))
        kept = F.copy()
        ref = projection_apply_cached_reference(proj, F)
        _same_bytes(proj.apply_cached(F), ref)
        _same_bytes(proj.apply(F), ref[0])
        assert F.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n", [1, 4, 64, 1000])
    def test_bce_loss(self, n):
        r = RngStream(47).substream("bce", n)
        for trial in range(5):
            z = _logits(r, n)
            y = r.integers(0, 2, z.size)
            _same_bytes(bce_loss(z, y), bce_one_exp_reference(z, y))

    @pytest.mark.parametrize("shape", [(1, 1), (4, 16), (64, 16), (500, 16)])
    def test_mse(self, shape):
        r = RngStream(53).substream("mse", shape)
        for trial in range(5):
            x = r.normal(scale=10.0 ** r.uniform(-3, 2), size=shape)
            target = x + r.normal(scale=10.0 ** r.uniform(-6, 1), size=shape)
            kept = x.copy(), target.copy()
            _same_bytes(kd_loss(target, x), mse_reference(x, target))
            _same_bytes(align_loss(x, target), mse_reference(x, target))
            assert (x.tobytes(), target.tobytes()) == tuple(k.tobytes() for k in kept)

    @pytest.mark.parametrize("jitter_scale", [0.0, 0.3, 0.5, 1.7])
    @pytest.mark.parametrize("m,n_samples", [(8, 4), (500, 64), (4000, 64)])
    def test_augment_features(self, jitter_scale, m, n_samples):
        r = RngStream(59).substream("augment", jitter_scale, m)
        mem = FeatureMemory(features=r.normal(scale=2.0, size=(m, 16)),
                            domain_class=np.arange(m) % 6, budget=m, space_task=3)
        moved = mem.features + r.normal(scale=0.1, size=mem.features.shape)
        for features in (None, moved):
            draw = r.substream("draw", features is None)
            ref = augment_reference(mem, jitter_scale, copy.deepcopy(draw), n_samples, features)
            batch = augment_features(mem, jitter_scale, draw, n_samples, features=features)
            _same_bytes((batch.features, batch.domain_class), ref)

    def test_calls_of_a_data_free_run(self, monkeypatch):
        # every call of these kernels in short four-task data-free runs, dgkd
        # and mlp heads, checked against the references on the call's inputs
        checked = Counter()

        def guard(kind, fn, reference):
            def checked_fn(*args):
                ref = reference(*args)
                before = _array_bytes(args)
                got = fn(*args)
                _same_bytes(got, ref)
                assert _array_bytes(args) == before          # no input (or cache) written
                checked[kind] += 1
                return got
            return checked_fn

        for name, ref in (("_silu", silu_one_exp_reference), ("_gaussians", gaussians_reference),
                          ("_gaussian_input_grad", gaussian_input_grad_reference),
                          ("_gaussian_param_grad", gaussian_param_grad_reference)):
            monkeypatch.setattr(dgkan.kanheads, name,
                                guard(name, getattr(dgkan.kanheads, name), ref))
        monkeypatch.setattr(dgkan.losses, "_mse",
                            guard("_mse", dgkan.losses._mse, lambda x, t, name: mse_reference(
                                np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64))))
        monkeypatch.setattr(dgkan.continual, "bce_loss",
                            guard("bce_loss", bce_loss, bce_one_exp_reference))
        for cls in (FeatureExtractor, MlpHead):
            for name, ref in (("forward", silu_mlp_forward_reference),
                              ("forward_cached", silu_mlp_forward_cached_reference),
                              ("backward", silu_mlp_backward_reference)):
                monkeypatch.setattr(cls, name, guard(f"{cls.__name__}.{name}",
                                                     getattr(cls, name), ref))
        def checked_augment(mem, jitter_scale, rng, n_samples, features=None):
            ref = augment_reference(mem, jitter_scale, copy.deepcopy(rng), n_samples, features)
            batch = augment_features(mem, jitter_scale, rng, n_samples, features=features)
            _same_bytes((batch.features, batch.domain_class), ref)
            checked["augment_features"] += 1
            return batch

        monkeypatch.setattr(dgkan.continual, "augment_features", checked_augment)
        monkeypatch.setattr(KdcpProjection, "apply", guard(
            "apply", KdcpProjection.apply,
            lambda proj, F: projection_apply_cached_reference(proj, F)[0]))
        monkeypatch.setattr(KdcpProjection, "apply_cached", guard(
            "apply_cached", KdcpProjection.apply_cached, projection_apply_cached_reference))

        # the gate: every code array it counts, and every loss it lets through
        gates, supcon_calls = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def bincount(self, codes, *args, **kwargs):
                gates.append(sc_gate_reference(codes))
                return np.bincount(codes, *args, **kwargs)

        def counting_supcon(*args, **kwargs):
            supcon_calls.append(1)
            return supcon_loss(*args, **kwargs)

        monkeypatch.setattr(dgkan.continual, "np", CountingNumpy())
        monkeypatch.setattr(dgkan.continual, "supcon_loss", counting_supcon)

        stream = gen_sequence("four-task", 11, train_n=65, eval_n=32)
        for head in ("dgkd", "mlp"):
            trainer = Trainer(TrainerConfig(head=head, epochs=2, memory_budget=40,
                                            jitter_scale=0.3), 11)
            for t in range(4):
                trainer.train_task(*dataset(stream, t, "train"))
                trainer.evaluate_all([dataset(stream, k, "eval") for k in range(t + 1)])
        # four steps a task (65 rows in batches of 64, two epochs), 16 a run;
        # from task 2 on, each step trains the projection and moves the memory
        steps, later = 2 * 16, 2 * 12
        assert checked["bce_loss"] == checked["FeatureExtractor.forward_cached"] == steps
        assert checked["FeatureExtractor.backward"] == steps
        assert checked["MlpHead.forward_cached"] == checked["MlpHead.backward"] == 16
        assert checked["MlpHead.forward"] == 1 + 2 + 3 + 4            # evaluate_all
        assert checked["_mse"] == 2 * later                           # kd and align
        assert checked["apply_cached"] == later
        assert checked["apply"] == later + 2 * 3                      # and each task end
        assert checked["augment_features"] == later
        # the value-only forward builds no slope, so only forward_cached calls _silu
        assert checked["_silu"] == sum(checked[f"{cls}.forward_cached"]
                                       for cls in ("FeatureExtractor", "MlpHead"))
        assert checked["_gaussian_input_grad"] == checked["_gaussian_param_grad"] == 16 + later
        assert checked["_gaussians"] > checked["_gaussian_input_grad"]
        assert len(gates) == steps and sum(gates) == len(supcon_calls) > 0


def projection_init_pool_reference(teacher, memory, X):
    """The task-start placement pool before one extractor forward served both
    the new DG-KD layer and the projection: the teacher's own forward of the
    task inputs, then the stored rows."""
    return np.vstack([teacher.forward(X), memory.features])


class TestTaskStartMatchesReference:
    @pytest.mark.parametrize("head", ["dgkd", "mlp"])
    def test_one_forward_serves_layer_and_projection(self, head, monkeypatch):
        # every task start from t = 2 of four-task data-free runs with KDCP
        init = KdcpProjection.init.__func__
        built = []                       # pool and placement, copied before any step

        def recording_init(cls, init_features, *args, **kwargs):
            proj = init(cls, init_features, *args, **kwargs)
            built.append([a.tobytes() for a in (init_features, proj.layer.centers,
                                                proj.layer.widths)])
            return proj

        monkeypatch.setattr(KdcpProjection, "init", classmethod(recording_init))
        stream = gen_sequence("four-task", 11, train_n=65, eval_n=32)
        trainer = Trainer(TrainerConfig(head=head, epochs=2, memory_budget=40), 11)
        teachers = []                    # the frozen teacher the task's steps read
        step = trainer._train_step
        monkeypatch.setattr(trainer, "_train_step", lambda xb, yb, teacher, *rest: (
            teachers.append(teacher), step(xb, yb, teacher, *rest)))
        for t in range(1, 5):
            X, y = dataset(stream, t - 1, "train")
            memory = trainer.memory
            trainer.train_task(X, y)
            assert len(built) == t - 1
            if t >= 2:
                pool = projection_init_pool_reference(teachers[-1], memory, X)
                ref = init(KdcpProjection, pool, trainer.cfg.d_f, target_task=t)
                assert built[-1] == [a.tobytes() for a in (pool, ref.layer.centers,
                                                            ref.layer.widths)]
            trainer.evaluate_all([dataset(stream, k, "eval") for k in range(t)])


# -- the group-rational backward ----------------------------------------------

def rational_affine_grad_reference(dY, X, P, Q, R, W, pcoef, qcoef, group_of):
    p = pcoef[group_of]
    q = qcoef[group_of]
    dW = dY.T @ R
    db = dY.sum(axis=0)
    dR = dY @ W
    x2 = X * X
    dp_dim = np.stack([dR / Q, dR * X / Q, dR * x2 / Q, dR * x2 * X / Q], axis=-1).sum(axis=0)
    ratio = dR * (-P / (Q * Q))
    dq_dim = np.stack([(ratio * 2.0 * q[:, 0] * x2).sum(axis=0),
                       (ratio * 2.0 * q[:, 1] * x2 * x2).sum(axis=0)], axis=-1)
    dpcoef = np.zeros_like(pcoef)
    dqcoef = np.zeros_like(qcoef)
    np.add.at(dpcoef, group_of, dp_dim)
    np.add.at(dqcoef, group_of, dq_dim)
    Pprime = p[:, 1] + 2.0 * p[:, 2] * X + 3.0 * p[:, 3] * x2
    Qprime = 2.0 * q[:, 0] ** 2 * X + 4.0 * q[:, 1] ** 2 * x2 * X
    dX = dR * (Pprime * Q - P * Qprime) / (Q * Q)
    return dX, [dW.ravel(), db, dpcoef.ravel(), dqcoef.ravel()]


def grkan_backward_reference(head, dY, cache):
    (X, _, _, _, P1, Q1, R1), (H, _, _, _, P2, Q2, R2) = cache
    dH, grads2 = rational_affine_grad_reference(dY, H, P2, Q2, R2, head.W2, head.p2, head.q2,
                                                head.group_of2)
    dX, grads1 = rational_affine_grad_reference(dH, X, P1, Q1, R1, head.W1, head.p1, head.q1,
                                                head.group_of1)
    return dX, np.concatenate(grads1 + grads2)


def rational_affine_reference(X, W, b, pcoef, qcoef, group_of):
    """One input dimension at a time, with its group's p and q rows:
    r(x) = P(x) / Q(x), then the affine map of the (N, d_in) r values."""
    P = np.empty_like(X)
    Q = np.empty_like(X)
    for j, g in enumerate(group_of):
        x = X[:, j]
        p0, p1, p2, p3 = pcoef[g]
        q0, q1 = qcoef[g]
        P[:, j] = p0 + p1 * x + p2 * (x * x) + p3 * (x * x) * x
        Q[:, j] = 1.0 + (q0 * x) ** 2 + (q1 * (x * x)) ** 2
    R = P / Q
    return R @ W.T + b, (P, Q, R)


GRKAN_SHAPES = [(1, 16, 32, 1, 4), (64, 16, 32, 1, 4), (128, 16, 32, 1, 4), (500, 16, 32, 1, 4),
                (13, 5, 7, 3, 2)]


@pytest.mark.parametrize("N,d_in,hidden,d_out,groups", GRKAN_SHAPES)
def test_group_rational_forward(N, d_in, hidden, d_out, groups):
    r = RngStream(61).substream("grkan-forward", N, d_in, hidden, d_out, groups)
    head = GrKanHead.init(d_in, d_out, hidden, groups, r.substream("init"))
    for trial in range(3):
        head.set_param_vector(r.normal(scale=0.5, size=head.n_params()))
        X = r.normal(scale=2.0, size=(N, d_in))
        H, cache1 = rational_affine_reference(X, head.W1, head.b1, head.p1, head.q1,
                                              head.group_of1)
        Y, cache2 = rational_affine_reference(H, head.W2, head.b2, head.p2, head.q2,
                                              head.group_of2)
        got, (got1, got2) = head.forward_cached(X)
        _same_bytes((got, got1[4:], got2[0], got2[4:]), (Y, cache1, H, cache2))
        _same_bytes(head.forward(X), Y)


@pytest.mark.parametrize("N,d_in,hidden,d_out,groups", GRKAN_SHAPES)
def test_group_rational_backward(N, d_in, hidden, d_out, groups):
    r = RngStream(59).substream("grkan", N, d_in, hidden, d_out, groups)
    head = GrKanHead.init(d_in, d_out, hidden, groups, r.substream("init"))
    for trial in range(3):
        # every coefficient nonzero, the q rows included, so every term counts
        head.set_param_vector(r.normal(scale=0.5, size=head.n_params()))
        X = r.normal(scale=2.0, size=(N, d_in))
        dY = r.normal(size=(N, d_out))
        cache = head.forward_cached(X)[1]
        _same_bytes(head.backward(dY, cache), grkan_backward_reference(head, dY, cache))
