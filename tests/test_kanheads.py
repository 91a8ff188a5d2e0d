import copy
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from dgkan.kanheads import (SIGMA_MIN, DgkdHead, DgLayer, FeatureExtractor, GrKanHead, MlpHead,
                            ParamArrays, _silu, activation_profile, add_task_layer,
                            group_index_map, make_baseline_head)
from dgkan.numcore import AdamState, ContractViolation, RngStream, adam_step, finite_diff_grad, max_rel_err
from dgkan.continual import Trainer, TrainerConfig
from dgkan.fskdcp import KdcpProjection
from dgkan.losses import bce_loss
from dgkan.synthbench import dataset, gen_sequence

from conftest import assert_backward_keeps_cache, gradcheck, gradcheck_vec, peak_alloc_bytes


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


def _random_layer(rng, d_in=5, d_out=3, groups=2):
    return DgLayer(d_in, d_out, groups,
                   W=rng.normal(scale=0.5, size=(d_out, d_in)),
                   centers=rng.normal(size=groups),
                   widths=rng.uniform(0.3, 1.2, groups))


class TestDgLayer:
    def test_hand_value(self):
        layer = DgLayer(2, 1, 1, W=[[1.0, 1.0]], centers=[0.0], widths=[1.0])
        assert layer.forward(np.array([[0.0, 0.0]]))[0, 0] == pytest.approx(2.0)
        out = layer.forward(np.array([[0.0, 10.0]]))[0, 0]
        assert out == pytest.approx(1.0 + math.exp(-50.0), abs=1e-20)

    def test_zero_weights(self, rng):
        layer = DgLayer(4, 2, 2, W=np.zeros((2, 4)), centers=[0.0, 1.0], widths=[1.0, 0.5])
        assert np.array_equal(layer.forward(rng.normal(size=(6, 4))), np.zeros((6, 2)))

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
        layer = DgLayer(6, 1, 3, W=np.ones((1, 6)), centers=[0.0, 0.0, 0.0],
                        widths=[1.0, 1.0, 1.0])
        x = np.full((1, 6), 0.7)
        _, (phi_before, _, _) = layer.forward_cached(x)
        layer.centers[1] += 0.3
        _, (phi_after, _, _) = layer.forward_cached(x)
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

    def test_sigma_clamped_after_adam_update(self, rng):
        layer = _random_layer(rng)
        opt = AdamState.init(layer.n_params(), lr=10.0)
        grads = np.zeros(layer.n_params())
        grads[-layer.groups:] = 1.0                # lr 10 steps every width by about -10
        layer.adam_update(grads, opt)
        assert np.all(layer.widths == SIGMA_MIN)
        assert np.shares_memory(layer.widths, layer.params)


class TestDgkdHead:
    def test_empty_head_raises(self):
        head = DgkdHead(4, 1, 2)
        with pytest.raises(ContractViolation, match="no layers"):
            head.forward(np.zeros((1, 4)))

    def test_single_layer_equals_layer(self, rng):
        layer = _random_layer(rng)
        head = DgkdHead(5, 3, 2, [layer])
        X = rng.normal(size=(7, 5))
        assert np.allclose(head.forward(X), layer.forward(X))

    def test_zero_weight_layer_adds_nothing(self, rng):
        l1 = _random_layer(rng)
        l2 = DgLayer(5, 3, 2, W=np.zeros((3, 5)), centers=[0.0, 0.0], widths=[1.0, 1.0])
        X = rng.normal(size=(4, 5))
        head2 = DgkdHead(5, 3, 2, [l1, l2])
        assert np.allclose(head2.forward(X), l1.forward(X))

    def test_disjoint_regions_tail_bound(self, rng):
        # inputs within the first layer's region but > 6 sigma from the second
        l1 = DgLayer(4, 2, 2, W=rng.normal(size=(2, 4)), centers=[0.0, 0.0], widths=[1.0, 1.0])
        l2 = DgLayer(4, 2, 2, W=rng.normal(size=(2, 4)), centers=[10.0, 10.0], widths=[1.0, 1.0])
        X = rng.uniform(-1, 1, size=(20, 4))   # >= 9 widths from the second layer's centers
        full = DgkdHead(4, 2, 2, [l1, l2]).forward(X)
        only1 = l1.forward(X)
        bound = 2 * 4 * np.abs(l2.W).max() * 1.6e-8
        assert np.abs(full - only1).max() <= bound

    def test_forward_holds_one_layer_of_gaussians(self, rng):
        # the value-only forward runs one layer at a time, so its peak does
        # not grow with T: never the stacked (T, N, d_f) z and phi that
        # forward_cached keeps for backward
        T, N, d_f = 10, 512, 16
        head = DgkdHead(d_f, 1, 4)
        for t in range(1, T + 1):
            add_task_layer(head, rng.normal(loc=t, size=(40, d_f)), rng.substream("init", t))
        X = rng.normal(size=(N, d_f))
        assert peak_alloc_bytes(head.forward, X) < 3 * N * d_f * 8

    def test_add_task_layer_structure(self, rng):
        head = DgkdHead(5, 1, 2)
        feats = rng.normal(size=(30, 5))
        add_task_layer(head, feats, rng.substream("l1"))
        assert head.active_task == 1 and not head.layers[0].frozen
        first = head.layers[0]
        add_task_layer(head, feats + 3.0, rng.substream("l2"))
        assert head.active_task == 2 and head.layers[0] is first
        assert head.layers[0].frozen and not head.layers[1].frozen

    def test_stale_head_cannot_train_after_add_task_layer(self, rng):
        # the head grows in place, so no earlier head object is left behind
        # to train a frozen layer: the given head is the grown one, its old
        # layers the same objects, now frozen, and a raise changes nothing
        feats = rng.normal(size=(30, 5))
        head = DgkdHead(5, 1, 2)
        assert add_task_layer(head, feats, rng.substream("a")) is None
        first = head.layers[0]
        vec = head.param_vector()
        assert add_task_layer(head, feats + 1.0, rng.substream("b")) is None
        assert head.active_task == 2 and head.layers[0] is first and first.frozen
        assert not head.layers[1].frozen
        assert first.param_vector().tobytes() == vec.tobytes()
        layers = list(head.layers)
        for bad in (np.zeros((0, 5)), np.zeros((4, 6)), np.full((4, 5), np.nan)):
            with pytest.raises(ContractViolation):
                add_task_layer(head, bad, rng.substream("c"))
            assert head.layers == layers and [l.frozen for l in layers] == [True, False]

    def test_add_task_layer_centers_match_group_means(self, rng):
        head = DgkdHead(6, 1, 3)
        feats = rng.normal(loc=2.0, size=(50, 6))
        add_task_layer(head, feats, rng.substream("l"))
        layer = head.layers[0]
        for g in range(3):
            cols = np.where(layer.group_of == g)[0]
            # independent summation oracle
            total = math.fsum(float(feats[i, j]) for i in range(50) for j in cols)
            assert layer.centers[g] == pytest.approx(total / (50 * len(cols)), abs=1e-9)

    def test_add_task_layer_width_clamp(self, rng):
        head = DgkdHead(4, 1, 2)
        add_task_layer(head, np.zeros((10, 4)), rng)   # zero spread -> clamp at 0.05
        assert np.all(head.layers[0].widths == 0.05)
        head2 = DgkdHead(4, 1, 2)
        add_task_layer(head2, rng.normal(scale=50.0, size=(200, 4)), rng)
        assert np.all(head2.layers[0].widths == 2.0)

    def test_add_task_layer_empty_features(self, rng):
        with pytest.raises(ContractViolation):
            add_task_layer(DgkdHead(4, 1, 2), np.zeros((0, 4)), rng)

    def test_frozen_layer_immutable_under_training(self, rng):
        feats = rng.normal(size=(40, 5))
        head = DgkdHead(5, 1, 2)
        add_task_layer(head, feats, rng.substream("a"))
        add_task_layer(head, feats + 2.0, rng.substream("b"))
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
        l1 = DgLayer(6, 1, 2, W=rng.normal(size=(1, 6)), centers=[0.0, 0.5], widths=[0.8, 1.0])
        l2 = DgLayer(6, 1, 2, W=rng.normal(size=(1, 6)), centers=[20.0, -20.0], widths=[1.5, 2.0])
        X = rng.uniform(-2, 2, size=(50, 6))
        z = np.abs(X - l2.centers[l2.group_of]) / l2.widths[l2.group_of]
        assert np.all(z >= 6.0)
        with_l2 = DgkdHead(6, 1, 2, [l1, l2]).forward(X)
        without = l1.forward(X)
        bound = 1 * 6 * np.abs(l2.W).max() * math.exp(-18.0)
        assert np.abs(with_l2 - without).max() <= bound


# Non-finite numbers that once built a layer, with what the error names: the
# feature sample that places a layer or a projection, or a module's array.
_NON_FINITE = {
    "nan-features": (lambda head, rng: add_task_layer(head, np.full((10, 4), np.nan), rng),
                     "group statistics sample"),
    "inf-row": (lambda head, rng: add_task_layer(
        head, np.vstack([rng.normal(size=(9, 4)), np.full((1, 4), np.inf)]), rng),
                "group statistics sample"),
    "projection-inf-row": (lambda head, rng: KdcpProjection.init(
        np.vstack([rng.normal(size=(9, 4)), [0.0, np.inf, 0.0, 0.0]]), 4, target_task=2),
                           "group statistics sample"),
    "dglayer-centers": (lambda head, rng: DgLayer(4, 1, 2, W=np.ones((1, 4)),
                                                  centers=[np.inf, 0.0], widths=[np.nan, 1.0]),
                        "DgLayer centers"),
    "dglayer-widths": (lambda head, rng: DgLayer(4, 1, 2, W=np.ones((1, 4)),
                                                 centers=[0.0, 0.0], widths=[1.0, np.nan]),
                       "DgLayer widths"),
    "dglayer-W": (lambda head, rng: DgLayer(4, 1, 2, W=[[0.0, np.nan, 0.0, 0.0]],
                                            centers=[0.0, 0.0], widths=[1.0, 1.0]),
                  "DgLayer W"),
    "extractor-b2": (lambda head, rng: FeatureExtractor(np.ones((3, 2)), np.ones(3),
                                                        np.ones((1, 3)), [-np.inf]),
                     "FeatureExtractor b2"),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_numbers_build_no_layer(case, rng):
    # each was accepted once (all but W): the NaN sample gave a layer whose
    # every forward was NaN, and the inf row tripped a RuntimeWarning in the
    # group mean.  A raise leaves the head as it was.
    head = DgkdHead(4, 1, 2)
    for k in range(2):
        add_task_layer(head, rng.normal(loc=k, size=(20, 4)), rng.substream("l", k))
    layers = list(head.layers)
    params = [l.param_vector().tobytes() for l in layers]
    build, names = _NON_FINITE[case]
    with pytest.raises(ContractViolation, match=f"{names} contains non-finite"):
        build(head, rng.substream("bad"))
    assert head.layers == layers and head.active_task == 2
    assert [l.frozen for l in layers] == [True, False]
    assert [l.param_vector().tobytes() for l in layers] == params


def _layer_loop_reference(layers, X, dY):
    """The head as a loop over its layers: outputs stacked and summed over
    the layer axis, input gradients summed from the first layer, parameter
    gradients of the last."""
    ys, caches = zip(*(layer.forward_cached(X) for layer in layers))
    Y = np.array(ys).sum(axis=0)
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
            add_task_layer(grown, r.normal(loc=T, scale=0.5 + 0.1 * T, size=(40, 16)),
                           r.substream("init"))
            # the same layers, unfrozen, handed to the constructor directly
            direct = DgkdHead(16, d_out, 4, [DgLayer(16, d_out, 4, l.W, l.centers, l.widths)
                                              for l in grown.layers])
            for N in (1, 64):
                X = r.normal(loc=T / 2, scale=3.0, size=(N, 16))
                dY = r.normal(size=(N, d_out))
                Y_ref, dX_ref, g_ref = _layer_loop_reference(grown.layers, X, dY)
                for head in (grown, direct):
                    Y, cache = head.forward_cached(X)
                    dX, grads = head.backward(dY, cache)
                    assert Y.tobytes() == Y_ref.tobytes()
                    assert head.forward(X).tobytes() == Y_ref.tobytes()
                    assert dX.tobytes() == dX_ref.tobytes()
                    assert grads.tobytes() == g_ref.tobytes()

    def test_forward_matches_forward_cached_on_one_element(self, rng):
        # a 1-row batch of a one-output head at T >= 8 is the one shape where
        # numpy sums the layer axis pairwise, not left to right: eval and
        # training agree there only because both paths sum the same way
        head = DgkdHead(16, 1, 4)
        for T in range(1, 11):
            add_task_layer(head, rng.normal(loc=T, size=(40, 16)), rng.substream("init", T))
        for _ in range(10):
            X = rng.normal(loc=2.0, scale=3.0, size=(1, 16))
            assert head.forward(X).tobytes() == head.forward_cached(X)[0].tobytes()

    def test_exact_bytes_after_active_layer_update(self, rng):
        feats = rng.normal(size=(30, 5))
        head = DgkdHead(5, 1, 2)
        add_task_layer(head, feats, rng.substream("a"))
        add_task_layer(head, feats + 1.0, rng.substream("b"))
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
        layer = DgLayer(4, 2, 2, W=rng.normal(size=(2, 4)), centers=[0.3, -1.0], widths=[1.0, 1.0])
        head = DgkdHead(4, 2, 2, [layer])
        vals = activation_profile(head, 0, [0.3])
        w_bar = layer.W[:, layer.group_of == 0].mean()
        assert vals[0] == pytest.approx(w_bar, rel=1e-12)

    def test_far_tail(self, rng):
        layer = DgLayer(4, 1, 2, W=rng.normal(size=(1, 4)), centers=[0.0, 0.0], widths=[1.0, 1.0])
        head = DgkdHead(4, 1, 2, [layer])
        w_bar = abs(layer.W[:, layer.group_of == 0].mean())
        assert abs(activation_profile(head, 0, [11.0])[0]) < 2e-22 * max(w_bar, 1e-30) + 1e-300

    def test_two_layers_sum(self, rng):
        l1 = _random_layer(rng.substream(1), d_in=4, d_out=2, groups=2)
        l2 = _random_layer(rng.substream(2), d_in=4, d_out=2, groups=2)
        xs = np.linspace(-3, 3, 11)
        combined = activation_profile(DgkdHead(4, 2, 2, [l1, l2]), 1, xs)
        a = activation_profile(DgkdHead(4, 2, 2, [l1]), 1, xs)
        b = activation_profile(DgkdHead(4, 2, 2, [l2]), 1, xs)
        assert np.allclose(combined, a + b, atol=1e-12)

    def test_bad_group_index(self, rng):
        head = DgkdHead(4, 1, 2, [_random_layer(rng, d_in=4, d_out=1, groups=2)])
        with pytest.raises(ContractViolation):
            activation_profile(head, 2, [0.0])


class TestBaselineHeads:
    def test_mlp_zero_weights(self):
        head = MlpHead(np.zeros((6, 4)), np.zeros(6), np.zeros((1, 6)), np.zeros(1))
        assert np.array_equal(head.forward(np.ones((2, 4))), np.zeros((2, 1)))

    def test_groupkan_identity_activation_is_linear(self, rng):
        # P(x) = x, Q(x) = 1 in both layers reduces the head to two affine maps
        W1, b1 = rng.normal(size=(3, 4)), rng.normal(size=3)
        W2, b2 = rng.normal(size=(2, 3)), rng.normal(size=2)
        p, q = np.tile([0.0, 1.0, 0.0, 0.0], (2, 1)), np.zeros((2, 2))
        head = GrKanHead(W1, b1, p, q, W2, b2, p, q)
        X = rng.normal(size=(5, 4))
        assert np.allclose(head.forward(X), (X @ W1.T + b1) @ W2.T + b2, atol=1e-12)

    def test_groupkan_starts_as_mlp(self, rng):
        # same draw, same affine maps; the rationals start at identity and silu
        gk = make_baseline_head("groupkan", 4, 2, rng.substream("h"), hidden=6, groups=2)
        mlp = make_baseline_head("mlp", 4, 2, rng.substream("h"), hidden=6, groups=2)
        assert [gk.W1.shape, gk.W2.shape] == [mlp.W1.shape, mlp.W2.shape]
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
        out = ext.forward(np.ones((2, 4)))
        assert np.array_equal(out, np.full((2, 3), 0.7))

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

    def test_forward_holds_output_and_one_block(self, rng):
        # the value-only forward streams row blocks: beyond its (N, d_out)
        # output it holds one block's pre-activation and one silu piece's
        # temporaries, whatever N is, never an (N, hidden) buffer.  Blocks are
        # 512 rows; 8191 rows end in the longest block, 1023 rows.
        d_out, hidden = 16, 64
        ext = FeatureExtractor.init(8, d_out, hidden, rng.substream("e"))
        block = 512 * hidden * 8
        for N in (8191, 8192):
            X = rng.normal(size=(N, 8))
            assert peak_alloc_bytes(ext.forward, X) < N * d_out * 8 + 4 * block

    def test_snapshot_is_independent(self, rng):
        ext = FeatureExtractor.init(4, 3, 6, rng)
        snap = ext.snapshot()
        before = snap.param_vector().copy()
        ext.W1 += 1.0
        assert np.array_equal(snap.param_vector(), before)


_MODULES = {
    "mlp": lambda rng: MlpHead.init(4, 2, 5, rng),
    "extractor": lambda rng: FeatureExtractor.init(4, 3, 6, rng),
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


@pytest.mark.parametrize("kind", sorted(_MODULES))
def test_forward_rejects_a_malformed_batch(kind, rng):
    # a batch of the wrong width, and a single sample without its batch axis
    module = _MODULES[kind](rng)
    for shape in ((2, module.d_in + 1), (module.d_in,)):
        for forward in (module.forward, module.forward_cached):
            with pytest.raises(ContractViolation,
                               match=rf"must be an \(N, {module.d_in}\) batch"):
                forward(np.zeros(shape))


def _param_arrays(module):
    """The arrays a module's forward reads, in parameter-vector order."""
    return [getattr(module, name) for name in module.PARAMS]


_COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda module: pickle.loads(pickle.dumps(module)),
    "snapshot": lambda module: module.snapshot(),
}


@pytest.mark.parametrize("kind,how", [(kind, how) for kind in sorted(_MODULES)
                                      for how in ("deepcopy", "pickle")]
                         + [("extractor", "snapshot")])
def test_copies_view_their_own_vector(kind, how, rng):
    # a copy whose arrays are not views of its own vector ignores
    # set_param_vector: a finite-difference probe then reads nothing but noise
    module = _MODULES[kind](rng)
    dup = _COPIES[how](module)
    before = module.param_vector()
    assert dup.param_vector().tobytes() == before.tobytes()
    for array in _param_arrays(dup):
        assert np.shares_memory(array, dup.params)
        assert not np.shares_memory(array, module.params)
    X = rng.normal(size=(5, module.d_in))
    Y = module.forward(X)
    dup.set_param_vector(before + 0.5)
    assert np.concatenate([a.ravel() for a in _param_arrays(dup)]).tobytes() == \
        (before + 0.5).tobytes()
    assert not np.array_equal(dup.forward(X), Y)
    assert module.param_vector().tobytes() == before.tobytes()
    assert module.forward(X).tobytes() == Y.tobytes()


def test_dgkd_head_deepcopy_views_its_own_layers(rng):
    # deepcopy and pickling: a copy shares no memory with the original,
    # trains apart from it, and forwards like a head built fresh from its values
    feats = rng.normal(size=(30, 5))
    head = DgkdHead(5, 1, 2)
    add_task_layer(head, feats, rng.substream("a"))
    add_task_layer(head, feats + 1.0, rng.substream("b"))
    X = rng.normal(size=(7, 5))
    Y = head.forward(X)
    before = head.param_vector()
    for how in ("deepcopy", "pickle"):
        dup = _COPIES[how](head)
        for layer in dup.layers:
            for name in layer.PARAMS:
                assert np.shares_memory(getattr(layer, name), layer.params)
                assert not any(np.shares_memory(getattr(layer, name), original.params)
                               for original in head.layers)
        dup.set_param_vector(before + 0.25)
        assert dup.active_layer.W.tobytes() == (head.active_layer.W + 0.25).tobytes()
        _, grads = dup.backward(np.ones((7, 1)), dup.forward_cached(X)[1])
        dup.adam_update(grads, AdamState.init(dup.n_params(), lr=0.1))
        fresh = DgkdHead(5, 1, 2, [DgLayer(5, 1, 2, l.W, l.centers, l.widths)
                                   for l in dup.layers])
        assert not np.array_equal(dup.forward(X), Y)
        assert dup.forward(X).tobytes() == fresh.forward(X).tobytes()
        assert dup.forward_cached(X)[0].tobytes() == fresh.forward_cached(X)[0].tobytes()
        assert head.param_vector().tobytes() == before.tobytes()
        assert head.forward(X).tobytes() == Y.tobytes()


def test_dgkd_head_leaves_its_layers_as_given(rng):
    # the constructor once re-homed each given layer's vector into a store of
    # the head's, so building a head changed the caller's layers
    layers = [_random_layer(rng) for _ in range(3)]
    owned = [(layer.params, [getattr(layer, name) for name in layer.PARAMS]) for layer in layers]
    head = DgkdHead(5, 3, 2, layers)
    for layer, (params, arrays) in zip(head.layers, owned):
        assert layer.params is params
        assert all(getattr(layer, name) is array for name, array in zip(layer.PARAMS, arrays))


def test_groupkan_head_built_from_another_leaves_it_as_it_was(rng):
    # the head's constructor once re-homed the layers it was given into a
    # vector of its own: the first head's forward then followed the second
    # head's training while its param_vector stayed as it was
    head = _MODULES["groupkan"](rng)
    X = rng.normal(size=(5, 4))
    before, Y = head.param_vector(), head.forward(X)
    dup = GrKanHead(*_param_arrays(head))
    assert not any(np.shares_memory(a, b) for a in [head.params, *_param_arrays(head)]
                   for b in [dup.params, *_param_arrays(dup)])
    dup.set_param_vector(before + 0.25)
    _, grads = dup.backward(np.ones((5, 2)), dup.forward_cached(X)[1])
    dup.adam_update(grads, AdamState.init(dup.n_params(), lr=0.1))
    assert not np.array_equal(dup.forward(X), Y)
    assert head.param_vector().tobytes() == before.tobytes()
    assert head.forward(X).tobytes() == Y.tobytes()


def test_no_module_rebinds_its_arrays():
    # a subclass's own _bind or __setstate__ could make its arrays views of
    # another object's vector; ParamArrays' pair always copies into its own
    pending, seen = list(ParamArrays.__subclasses__()), set()
    while pending:
        cls = pending.pop()
        seen.add(cls)
        pending += cls.__subclasses__()
        assert not {"_bind", "__setstate__"} & set(vars(cls)), cls.__name__
    assert {DgLayer, MlpHead, FeatureExtractor, GrKanHead} <= seen


def test_trained_dgkd_layers_own_their_vectors():
    # after each task of a run: every layer's arrays view that layer's own
    # vector, no two layers share memory, and the frozen layers keep their bytes
    stream = gen_sequence("four-task", 11, train_n=65, eval_n=32)
    trainer = Trainer(TrainerConfig(epochs=2, memory_budget=40), 11)
    frozen = []
    for t in range(4):
        trainer.train_task(*dataset(stream, t, "train"))
        layers = trainer.head.layers
        assert len(layers) == t + 1
        for k, layer in enumerate(layers):
            assert layer.params.flags.owndata
            assert all(np.shares_memory(getattr(layer, name), layer.params)
                       for name in layer.PARAMS)
            assert not any(np.shares_memory(layer.params, other.params) for other in layers[:k])
        assert [layer.params.tobytes() for layer in layers[:t]] == frozen
        assert all(layer.frozen for layer in layers[:t]) and not layers[t].frozen
        frozen.append(layers[t].params.tobytes())


class TestBackwardKeepsCache:
    """The in-place kernels never write into an array a cache holds:
    ``backward`` twice on one cache gives the same bytes."""

    @pytest.mark.parametrize("N", [1, 4, 64])
    def test_dglayer(self, N, rng):
        layer = _random_layer(rng, d_in=16, d_out=16, groups=4)
        assert_backward_keeps_cache(layer.forward_cached, layer.backward,
                                    rng.normal(size=(N, 16)), rng.normal(size=(N, 16)))

    @pytest.mark.parametrize("T", [1, 4])
    @pytest.mark.parametrize("N", [1, 64])
    def test_dgkd_head(self, T, N, rng):
        head = DgkdHead(16, 1, 4)
        for k in range(T):
            add_task_layer(head, rng.normal(loc=k, size=(40, 16)), rng.substream("l", k))
        head.set_param_vector(head.param_vector() + rng.normal(scale=0.1, size=head.n_params()))
        assert_backward_keeps_cache(head.forward_cached, head.backward,
                                    rng.normal(loc=1.0, size=(N, 16)), rng.normal(size=(N, 1)))

    @pytest.mark.parametrize("cls,d_in,hidden,d_out", [(FeatureExtractor, 8, 64, 16),
                                                       (MlpHead, 16, 32, 1)])
    @pytest.mark.parametrize("N", [1, 64])
    def test_silu_mlp(self, cls, d_in, hidden, d_out, N, rng):
        m = cls.init(d_in, d_out, hidden, rng)
        m.set_param_vector(rng.normal(scale=0.5, size=m.n_params()))
        assert_backward_keeps_cache(m.forward_cached, m.backward,
                                    rng.normal(size=(N, d_in)), rng.normal(size=(N, d_out)))
