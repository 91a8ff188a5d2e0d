import math
from dataclasses import dataclass

import numpy as np
import pytest

from dgkan.kanheads import (SIGMA_MIN, DgkdHead, DgLayer, FeatureExtractor, GrKanLayer,
                            MlpHead, _silu, activation_profile, add_task_layer,
                            group_index_map, make_baseline_head)
from dgkan.numcore import AdamState, ContractViolation, RngStream, adam_step, finite_diff_grad, max_rel_err
from dgkan.losses import bce_loss

from conftest import gradcheck, gradcheck_vec


# Scalar oracles of one grouped-RBF bump, against which the vectorized layers
# are checked; the library itself never evaluates a single bump.

@dataclass
class RbfParams:
    """Center and width of one shared Gaussian bump (width clamped >= 1e-3)."""

    center: float
    width: float

    def __post_init__(self):
        self.center = float(self.center)
        self.width = max(float(self.width), SIGMA_MIN)


def rbf_eval(x: float, p: RbfParams) -> float:
    """Gaussian response exp(-(x-c)^2 / (2 sigma^2)), in (0, 1]."""
    z = (x - p.center) / p.width
    return float(np.exp(-0.5 * z * z))


def rbf_grad(x: float, p: RbfParams) -> tuple[float, float, float]:
    """Closed-form partials (d/dx, d/dc, d/dsigma); d/dx == -d/dc."""
    z = (x - p.center) / p.width
    phi = np.exp(-0.5 * z * z)
    ddx = -z / p.width * phi
    ddc = z / p.width * phi
    dds = z * z / p.width * phi
    return float(ddx), float(ddc), float(dds)


class TestRbf:
    def test_peak(self):
        assert rbf_eval(0.0, RbfParams(0.0, 1.0)) == 1.0

    def test_one_sigma(self):
        assert rbf_eval(1.0, RbfParams(0.0, 1.0)) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_far_tail(self):
        assert rbf_eval(10.0, RbfParams(0.0, 1.0)) < 2e-22

    def test_width_clamped(self):
        assert RbfParams(0.0, 1e-9).width == 1e-3

    def test_grad_at_peak(self):
        assert rbf_grad(0.0, RbfParams(0.0, 1.0)) == (0.0, 0.0, 0.0)

    def test_grad_hand_value(self):
        ddx, ddc, dds = rbf_grad(1.0, RbfParams(0.0, 1.0))
        assert ddx == pytest.approx(-math.exp(-0.5), rel=1e-12)
        assert ddc == -ddx

    def test_grad_matches_finite_diff(self, rng):
        for _ in range(100):
            x = float(rng.uniform(-3, 3))
            c = float(rng.uniform(-2, 2))
            s = float(rng.uniform(0.2, 2.0))
            ddx, ddc, dds = rbf_grad(x, RbfParams(c, s))
            gradcheck(lambda v: rbf_eval(float(v[0]), RbfParams(c, s)), [x], [ddx], tol=1e-6)
            gradcheck(lambda v: rbf_eval(x, RbfParams(float(v[0]), s)), [c], [ddc], tol=1e-6)
            gradcheck(lambda v: rbf_eval(x, RbfParams(c, float(v[0]))), [s], [dds], tol=1e-6)


class TestGroupMap:
    def test_even_split(self):
        assert group_index_map(8, 4).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_remainder_goes_to_last_group(self):
        assert group_index_map(7, 3).tolist() == [0, 0, 1, 1, 2, 2, 2]

    def test_bad_group_count(self):
        with pytest.raises(ContractViolation):
            group_index_map(4, 5)


def _random_layer(rng, d_in=5, d_out=3, groups=2, task_id=1):
    return DgLayer(task_id, d_in, d_out, groups,
                   W=rng.normal(scale=0.5, size=(d_out, d_in)),
                   centers=rng.normal(size=groups),
                   widths=rng.uniform(0.3, 1.2, groups))


class TestDgLayer:
    def test_hand_value(self):
        layer = DgLayer(1, 2, 1, 1, W=[[1.0, 1.0]], centers=[0.0], widths=[1.0])
        assert layer.forward(np.array([0.0, 0.0]))[0] == pytest.approx(2.0)
        out = layer.forward(np.array([0.0, 10.0]))[0]
        assert out == pytest.approx(1.0 + math.exp(-50.0), abs=1e-20)

    def test_zero_weights(self, rng):
        layer = DgLayer(1, 4, 2, 2, W=np.zeros((2, 4)), centers=[0.0, 1.0], widths=[1.0, 0.5])
        assert np.array_equal(layer.forward(rng.normal(size=(6, 4))), np.zeros((6, 2)))

    def test_length_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            _random_layer(rng).forward(np.zeros(4))

    def test_gradients_match_finite_diff(self, rng):
        for trial in range(30):
            layer = _random_layer(rng.substream(trial))
            X = rng.normal(size=(4, 5))
            R = rng.normal(size=(4, 3))

            def f(vec):
                probe = _random_layer(RngStream(0))
                probe.set_param_vector(vec)
                return float((probe.forward(X) * R).sum())

            Y, cache = layer.forward_cached(X)
            dX, grads = layer.backward(R, cache)
            gradcheck(f, layer.param_vector(), grads)
            gradcheck_vec(lambda flat: float((layer.forward(flat.reshape(4, 5)) * R).sum()),
                          X.ravel(), dX.ravel())

    def test_group_sharing(self, rng):
        # perturbing a group's shared params changes every dimension in the
        # group identically and leaves other groups untouched
        layer = DgLayer(1, 6, 1, 3, W=np.ones((1, 6)), centers=[0.0, 0.0, 0.0],
                        widths=[1.0, 1.0, 1.0])
        x = np.full(6, 0.7)
        phi_before, _, _ = layer._phi(x[None, :])
        layer.centers[1] += 0.3
        phi_after, _, _ = layer._phi(x[None, :])
        delta = (phi_after - phi_before)[0]
        group = layer.group_of == 1
        assert np.all(delta[~group] == 0.0)
        assert np.all(delta[group] == delta[group][0])
        assert delta[group][0] != 0.0

    def test_sigma_clamped_after_update(self, rng):
        layer = _random_layer(rng)
        vec = layer.param_vector()
        vec[-layer.groups:] = -5.0
        layer.set_param_vector(vec)
        assert np.all(layer.widths >= 1e-3)


class TestDgkdHead:
    def test_empty_head_raises(self):
        head = DgkdHead(4, 1, 2)
        with pytest.raises(ContractViolation):
            head.forward(np.zeros(4))

    def test_single_layer_equals_layer(self, rng):
        layer = _random_layer(rng)
        head = DgkdHead(5, 3, 2, [layer])
        X = rng.normal(size=(7, 5))
        assert np.allclose(head.forward(X), layer.forward(X))

    def test_zero_weight_layer_adds_nothing(self, rng):
        l1 = _random_layer(rng, task_id=1)
        l2 = DgLayer(2, 5, 3, 2, W=np.zeros((3, 5)), centers=[0.0, 0.0], widths=[1.0, 1.0])
        X = rng.normal(size=(4, 5))
        head2 = DgkdHead(5, 3, 2, [l1, l2])
        assert np.allclose(head2.forward(X), l1.forward(X))

    def test_disjoint_regions_tail_bound(self, rng):
        # inputs within the first layer's region but > 6 sigma from the second
        l1 = DgLayer(1, 4, 2, 2, W=rng.normal(size=(2, 4)), centers=[0.0, 0.0], widths=[1.0, 1.0])
        l2 = DgLayer(2, 4, 2, 2, W=rng.normal(size=(2, 4)), centers=[10.0, 10.0],
                     widths=[1.0, 1.0], frozen=False)
        X = rng.uniform(-1, 1, size=(20, 4))   # >= 9 widths from the second layer's centers
        full = DgkdHead(4, 2, 2, [l1, l2]).forward(X)
        only1 = l1.forward(X)
        bound = 2 * 4 * np.abs(l2.W).max() * 1.6e-8
        assert np.abs(full - only1).max() <= bound

    def test_add_task_layer_structure(self, rng):
        head = DgkdHead(5, 1, 2)
        feats = rng.normal(size=(30, 5))
        head = add_task_layer(head, feats, rng.substream("l1"))
        assert head.active_task == 1 and not head.layers[0].frozen
        head = add_task_layer(head, feats + 3.0, rng.substream("l2"))
        assert head.active_task == 2
        assert head.layers[0].frozen and not head.layers[1].frozen
        assert [l.task_id for l in head.layers] == [1, 2]

    def test_stale_head_cannot_train_after_add_task_layer(self, rng):
        # the layers are frozen in place and shared, so the head that was
        # current before the new layer must refuse further updates
        feats = rng.normal(size=(30, 5))
        stale = add_task_layer(DgkdHead(5, 1, 2), feats, rng.substream("a"))
        vec = stale.param_vector()
        stale.set_param_vector(vec)
        head = add_task_layer(stale, feats + 1.0, rng.substream("b"))
        assert head.layers[0] is stale.layers[0] and stale.layers[0].frozen
        with pytest.raises(ContractViolation, match="frozen"):
            stale.set_param_vector(vec + 0.25)
        assert head.layers[0].param_vector().tobytes() == vec.tobytes()

    def test_add_task_layer_centers_match_group_means(self, rng):
        head = DgkdHead(6, 1, 3)
        feats = rng.normal(loc=2.0, size=(50, 6))
        head = add_task_layer(head, feats, rng.substream("l"))
        layer = head.layers[0]
        for g in range(3):
            cols = np.where(layer.group_of == g)[0]
            # independent summation oracle
            total = math.fsum(float(feats[i, j]) for i in range(50) for j in cols)
            assert layer.centers[g] == pytest.approx(total / (50 * len(cols)), abs=1e-9)

    def test_add_task_layer_width_clamp(self, rng):
        head = DgkdHead(4, 1, 2)
        head = add_task_layer(head, np.zeros((10, 4)), rng)   # zero spread -> clamp at 0.05
        assert np.all(head.layers[0].widths == 0.05)
        head2 = add_task_layer(DgkdHead(4, 1, 2), rng.normal(scale=50.0, size=(200, 4)), rng)
        assert np.all(head2.layers[0].widths == 2.0)

    def test_add_task_layer_empty_features(self, rng):
        with pytest.raises(ContractViolation):
            add_task_layer(DgkdHead(4, 1, 2), np.zeros((0, 4)), rng)

    def test_frozen_layer_immutable_under_training(self, rng):
        feats = rng.normal(size=(40, 5))
        head = add_task_layer(DgkdHead(5, 1, 2), feats, rng.substream("a"))
        head = add_task_layer(head, feats + 2.0, rng.substream("b"))
        frozen_bytes = head.layers[0].param_vector().tobytes()
        opt = AdamState.init(head.active_layer.n_params(), lr=1e-2)
        y = rng.integers(0, 2, 40)
        for _ in range(25):
            logits, cache = head.forward_cached(feats)
            _, dlogits = bce_loss(logits, y)
            _, grads = head.backward(dlogits.reshape(-1, 1), cache)
            head.set_param_vector(adam_step(head.param_vector(), grads, opt))
        assert head.layers[0].param_vector().tobytes() == frozen_bytes

    def test_locality_invariant(self, rng):
        # removing a layer whose centers are >= 6 sigma away changes nothing
        # beyond the Gaussian tail bound
        l1 = DgLayer(1, 6, 1, 2, W=rng.normal(size=(1, 6)), centers=[0.0, 0.5], widths=[0.8, 1.0])
        l2 = DgLayer(2, 6, 1, 2, W=rng.normal(size=(1, 6)), centers=[20.0, -20.0], widths=[1.5, 2.0])
        X = rng.uniform(-2, 2, size=(50, 6))
        z = np.abs(X - l2.centers[l2.group_of]) / l2.widths[l2.group_of]
        assert np.all(z >= 6.0)
        with_l2 = DgkdHead(6, 1, 2, [l1, l2]).forward(X)
        without = l1.forward(X)
        bound = 1 * 6 * np.abs(l2.W).max() * math.exp(-18.0)
        assert np.abs(with_l2 - without).max() <= bound


def _layer_loop_reference(layers, X, dY):
    """The head as a loop over its layers: outputs summed from zero, input
    gradients summed from the first layer, parameter gradients of the last."""
    Y = np.zeros((X.shape[0], layers[0].d_out))
    caches = []
    for layer in layers:
        y, cache = layer.forward_cached(X)
        Y += y
        caches.append(cache)
    dX = None
    for layer, cache in zip(layers, caches):
        dx, grads = layer.backward(dY, cache)
        dX = dx if dX is None else dX + dx
    return Y, dX, grads


class TestStackedHeadMatchesLayerLoop:
    @pytest.mark.parametrize("d_out", [1, 3])
    def test_exact_bytes_for_one_to_ten_layers(self, d_out, rng):
        grown = DgkdHead(16, d_out, 4)
        for T in range(1, 11):
            r = rng.substream("T", T, d_out)
            grown = add_task_layer(grown, r.normal(loc=T, scale=0.5 + 0.1 * T, size=(40, 16)),
                                   r.substream("init"))
            # the same layers, unfrozen, handed to the constructor directly
            direct = DgkdHead(16, d_out, 4, [DgLayer(l.task_id, 16, d_out, 4, l.W, l.centers,
                                                     l.widths) for l in grown.layers])
            for N in (1, 64):
                X = r.normal(loc=T / 2, scale=3.0, size=(N, 16))
                dY = r.normal(size=(N, d_out))
                Y_ref, dX_ref, g_ref = _layer_loop_reference(grown.layers, X, dY)
                for head in (grown, direct):
                    Y, cache = head.forward_cached(X)
                    dX, grads = head.backward(dY, cache)
                    assert Y.tobytes() == Y_ref.tobytes()
                    assert head.forward(X).tobytes() == Y_ref.tobytes()
                    if N == 1:
                        assert head.forward(X[0]).tobytes() == Y_ref[0].tobytes()
                    assert dX.tobytes() == dX_ref.tobytes()
                    assert grads.tobytes() == g_ref.tobytes()

    def test_exact_bytes_after_active_layer_update(self, rng):
        feats = rng.normal(size=(30, 5))
        head = add_task_layer(DgkdHead(5, 1, 2), feats, rng.substream("a"))
        head = add_task_layer(head, feats + 1.0, rng.substream("b"))
        head.set_param_vector(head.param_vector() + 0.25)
        X = rng.normal(size=(9, 5))
        dY = rng.normal(size=(9, 1))
        Y_ref, dX_ref, g_ref = _layer_loop_reference(head.layers, X, dY)
        Y, cache = head.forward_cached(X)
        dX, grads = head.backward(dY, cache)
        assert Y.tobytes() == Y_ref.tobytes() and dX.tobytes() == dX_ref.tobytes()
        assert grads.tobytes() == g_ref.tobytes()


def test_silu_matches_three_exp_formula(rng):
    for scale in (0.1, 1.0, 10.0, 100.0, 800.0):
        z = np.concatenate([[0.0, -0.0], rng.normal(scale=scale, size=500)])
        e3 = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                      np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
        value, slope = _silu(z)
        assert value.tobytes() == (z * e3).tobytes()
        assert slope.tobytes() == (e3 * (1.0 + z * (1.0 - e3))).tobytes()


class TestActivationProfile:
    def test_single_layer_peak(self, rng):
        layer = DgLayer(1, 4, 2, 2, W=rng.normal(size=(2, 4)), centers=[0.3, -1.0], widths=[1.0, 1.0])
        head = DgkdHead(4, 2, 2, [layer])
        vals = activation_profile(head, 0, [0.3])
        w_bar = layer.W[:, layer.group_of == 0].mean()
        assert vals[0] == pytest.approx(w_bar, rel=1e-12)

    def test_far_tail(self, rng):
        layer = DgLayer(1, 4, 1, 2, W=rng.normal(size=(1, 4)), centers=[0.0, 0.0], widths=[1.0, 1.0])
        head = DgkdHead(4, 1, 2, [layer])
        w_bar = abs(layer.W[:, layer.group_of == 0].mean())
        assert abs(activation_profile(head, 0, [11.0])[0]) < 2e-22 * max(w_bar, 1e-30) + 1e-300

    def test_two_layers_sum(self, rng):
        l1 = _random_layer(rng.substream(1), d_in=4, d_out=2, groups=2)
        l2 = _random_layer(rng.substream(2), d_in=4, d_out=2, groups=2, task_id=2)
        xs = np.linspace(-3, 3, 11)
        combined = activation_profile(DgkdHead(4, 2, 2, [l1, l2]), 1, xs)
        a = activation_profile(DgkdHead(4, 2, 2, [l1]), 1, xs)
        l2_solo = DgLayer(1, 4, 2, 2, W=l2.W, centers=l2.centers, widths=l2.widths)
        b = activation_profile(DgkdHead(4, 2, 2, [l2_solo]), 1, xs)
        assert np.allclose(combined, a + b, atol=1e-12)

    def test_bad_group_index(self, rng):
        head = DgkdHead(4, 1, 2, [_random_layer(rng, d_in=4, d_out=1, groups=2)])
        with pytest.raises(ContractViolation):
            activation_profile(head, 2, [0.0])


class TestBaselineHeads:
    def test_mlp_zero_weights(self):
        head = MlpHead(np.zeros((6, 4)), np.zeros(6), np.zeros((1, 6)), np.zeros(1))
        assert np.array_equal(head.forward(np.ones(4)), np.zeros(1))

    def test_groupkan_identity_activation_is_linear(self, rng):
        # P(x) = x, Q(x) = 1 reduces to an affine layer
        W = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        head = GrKanLayer(W, b, pcoef=np.tile([0.0, 1.0, 0.0, 0.0], (2, 1)),
                          qcoef=np.zeros((2, 2)), groups=2)
        X = rng.normal(size=(5, 4))
        assert np.allclose(head.forward(X), X @ W.T + b, atol=1e-12)

    def test_groupkan_starts_as_mlp(self, rng):
        # same draw, same affine maps; the rationals start at identity and silu
        gk = make_baseline_head("groupkan", 4, 2, rng.substream("h"), hidden=6, groups=2)
        mlp = make_baseline_head("mlp", 4, 2, rng.substream("h"), hidden=6, groups=2)
        assert [l.W.shape for l in gk.layers] == [mlp.W1.shape, mlp.W2.shape]
        X = rng.uniform(-1.0, 1.0, (50, 4))
        assert np.abs(X @ mlp.W1.T + mlp.b1).max() <= 3.0
        bound = 0.0062 * np.abs(mlp.W2).sum(axis=1)
        assert np.all(np.abs(gk.forward(X) - mlp.forward(X)) <= bound)

    @pytest.mark.parametrize("kind", ["mlp", "groupkan"])
    def test_gradients_match_finite_diff(self, kind, rng):
        for trial in range(20):
            head = make_baseline_head(kind, 4, 2, rng.substream(kind, trial), hidden=5, groups=2)
            X = rng.normal(size=(3, 4))
            R = rng.normal(size=(3, 2))
            _, cache = head.forward_cached(X)
            dX, grads = head.backward(R, cache)

            def f(vec, head=head):
                import copy
                probe = copy.deepcopy(head)
                probe.set_param_vector(vec)
                return float((probe.forward(X) * R).sum())

            gradcheck(f, head.param_vector(), grads)
            gradcheck_vec(lambda flat: float((head.forward(flat.reshape(3, 4)) * R).sum()),
                          X.ravel(), dX.ravel())

    def test_unknown_kind(self, rng):
        with pytest.raises(ContractViolation):
            make_baseline_head("spline", 4, 1, rng)


class TestFeatureExtractor:
    def test_zero_weights_give_bias_image(self):
        ext = FeatureExtractor(np.zeros((6, 4)), np.zeros(6), np.zeros((3, 6)), np.full(3, 0.7))
        out = ext.forward(np.ones(4))
        assert np.array_equal(out, np.full(3, 0.7))

    def test_deterministic(self, rng):
        ext = FeatureExtractor.init(4, 3, 8, rng.substream("e"))
        X = rng.normal(size=(5, 4))
        assert np.array_equal(ext.forward(X), ext.forward(X))

    def test_gradients_match_finite_diff(self, rng):
        for trial in range(20):
            ext = FeatureExtractor.init(4, 3, 6, rng.substream("g", trial))
            X = rng.normal(size=(3, 4))
            R = rng.normal(size=(3, 3))
            _, cache = ext.forward_cached(X)
            dX, grads = ext.backward(R, cache)

            def f(vec):
                probe = FeatureExtractor(ext.W1, ext.b1, ext.W2, ext.b2)
                probe.set_param_vector(vec)
                return float((probe.forward(X) * R).sum())

            gradcheck(f, ext.param_vector(), grads)

    def test_snapshot_is_independent(self, rng):
        ext = FeatureExtractor.init(4, 3, 6, rng)
        snap = ext.snapshot()
        before = snap.param_vector().copy()
        ext.W1 += 1.0
        assert np.array_equal(snap.param_vector(), before)


_MODULES = {
    "mlp": lambda rng: MlpHead.init(4, 2, 5, rng),
    "extractor": lambda rng: FeatureExtractor.init(4, 3, 6, rng),
    "groupkan-layer": lambda rng: GrKanLayer(rng.normal(size=(3, 4)), rng.normal(size=3),
                                             rng.normal(size=(2, 4)), rng.normal(size=(2, 2)), 2),
    "groupkan": lambda rng: make_baseline_head("groupkan", 4, 2, rng, hidden=5, groups=2),
    "dglayer": _random_layer,
}


@pytest.mark.parametrize("delta", [-3, 3])
@pytest.mark.parametrize("kind", sorted(_MODULES))
def test_set_param_vector_rejects_wrong_length(kind, delta, rng):
    # a vector of the wrong length raises before any array is replaced
    module = _MODULES[kind](rng)
    before = module.param_vector().copy()
    with pytest.raises(ContractViolation, match="parameter vector has"):
        module.set_param_vector(np.ones(before.size + delta))
    assert np.array_equal(module.param_vector(), before)
