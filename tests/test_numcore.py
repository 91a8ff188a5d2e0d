import numpy as np
import pytest

from dgkan.numcore import (AdamState, ContractViolation, RngStream, adam_step, finite_diff_grad,
                           max_rel_err)


def functional_adam_step(params, grads, m, v, step_count, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The functional Adam update that ``adam_step`` replaced, verbatim in its
    arithmetic: fresh moments and parameters, nothing updated in place."""
    t = step_count + 1
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


class TestAdam:
    def test_single_step_hand_value(self):
        # one bias-corrected step: m_hat = v_hat = 1, update = -lr / (1 + eps)
        state = AdamState.init(1, lr=0.1)
        params = adam_step(np.array([0.0]), np.array([1.0]), state)
        assert params[0] == pytest.approx(-0.1 * 1.0 / (1.0 + 1e-8), abs=1e-12)
        assert state.step_count == 1

    def test_zero_gradients_leave_params_bit_identical(self):
        params = np.array([0.5, -1.25, 3.0])
        state = AdamState.init(3, lr=0.01)
        original = params.tobytes()
        for _ in range(7):
            params = adam_step(params, np.zeros(3), state)
        assert params.tobytes() == original
        assert state.step_count == 7
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_deterministic(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.3, -0.7])
        s = AdamState.init(2, lr=0.05)
        out1 = adam_step(p.copy(), g, s)
        out2 = adam_step(p.copy(), g, AdamState.init(2, lr=0.05))
        assert np.array_equal(out1, out2)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            adam_step(np.zeros(2), np.zeros(3), AdamState.init(2, lr=0.1))

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(ContractViolation, match="non-finite"):
            adam_step(np.zeros(2), np.array([1.0, np.nan]), AdamState.init(2, lr=0.1))

    def test_hyperparameter_validation(self):
        with pytest.raises(ContractViolation):
            AdamState(m=np.zeros(1), v=np.zeros(1), lr=-1.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_lr_rejected(self, lr):
        # NaN passed "lr <= 0" and turned every parameter into NaN on the first step
        with pytest.raises(ContractViolation, match="Adam lr must be finite and positive"):
            AdamState.init(3, lr=lr)

    @pytest.mark.parametrize("lr", [1e-3, 2e-4, 5e-4, 1e-2])
    def test_bitwise_equal_to_functional_update(self, lr):
        r = RngStream(3).substream("adam", lr)
        n = 257
        params = r.normal(size=n)
        state = AdamState.init(n, lr=lr)
        ref_p, ref_m, ref_v, ref_t = params.copy(), np.zeros(n), np.zeros(n), 0
        for k in range(300):
            grads = r.normal(scale=10.0 ** r.uniform(-6, 2), size=n)
            if k % 7 == 3:
                grads[:] = 0.0                        # whole zero-gradient steps
            grads[r.integers(0, n, size=20)] = 0.0    # and zero entries in the others
            params = adam_step(params, grads, state)
            ref_p, ref_m, ref_v, ref_t = functional_adam_step(ref_p, grads, ref_m, ref_v, ref_t, lr)
            assert np.array_equal(params, ref_p)
            assert np.array_equal(state.m, ref_m) and np.array_equal(state.v, ref_v)
            assert state.step_count == ref_t

    def test_rejected_step_leaves_state_unchanged(self):
        state = AdamState.init(2, lr=0.1)
        adam_step(np.zeros(2), np.array([0.5, -1.0]), state)
        m, v = state.m.copy(), state.v.copy()
        with pytest.raises(ContractViolation):
            adam_step(np.zeros(2), np.array([1.0, np.inf]), state)
        assert state.step_count == 1
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_state_owns_its_moments(self):
        m = np.zeros(2)
        state = AdamState(m=m, v=np.zeros(2), lr=0.1)
        adam_step(np.zeros(2), np.ones(2), state)
        assert np.all(m == 0.0) and np.all(state.m != 0.0)


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-4)
        assert g[0] == pytest.approx(6.0, abs=1e-7)

    def test_constant(self):
        g = finite_diff_grad(lambda v: 5.0, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(g, np.zeros(3))

    def test_sum(self):
        g = finite_diff_grad(lambda v: float(v.sum()), np.array([0.3, -4.0, 7.7]))
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_quadratic_matches_analytic(self, rng):
        # degree <= 2 polynomials within 1e-6 absolute for h = 1e-4, |x| <= 10
        for _ in range(20):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            c = float(rng.normal())
            x = rng.uniform(-10, 10, 4)
            f = lambda v: float(a @ (v * v) + b @ v + c)
            g = finite_diff_grad(f, x, h=1e-4)
            assert np.max(np.abs(g - (2 * a * x + b))) < 1e-6

    def test_nonfinite_value_names_coordinate(self):
        def f(v):
            return float("nan") if v[1] > 0.5 else 0.0
        with pytest.raises(ContractViolation, match="coordinate 1"):
            finite_diff_grad(f, np.array([0.0, 0.5]), h=1e-2)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42).uniform(size=10_000)
        b = RngStream(42).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).uniform(size=100), RngStream(2).uniform(size=100))

    def test_substreams_independent_of_draw_order(self):
        root = RngStream(7)
        root.uniform(size=50)  # consume from the root
        a = root.substream("x").normal(size=20)
        b = RngStream(7).substream("x").normal(size=20)
        assert np.array_equal(a, b)

    def test_substream_paths_distinct(self):
        root = RngStream(7)
        assert not np.array_equal(root.substream("a").uniform(size=10),
                                  root.substream("b").uniform(size=10))

    def test_seed_is_an_integer_at_least_zero(self):
        # a numpy integer keeps its draws; -1 failed in numpy's SeedSequence,
        # and 1.5 drew seed 1's numbers
        assert np.array_equal(RngStream(np.int64(5)).uniform(size=8), RngStream(5).uniform(size=8))
        for seed in (-1, 1.5, True, "3"):
            with pytest.raises(ContractViolation, match="seed must be an integer >= 0"):
                RngStream(seed)

    def test_string_and_int_path_parts(self):
        s = RngStream(3).substream("task", 2, "batches")
        t = RngStream(3).substream("task", 2, "batches")
        assert np.array_equal(s.integers(0, 100, 50), t.integers(0, 100, 50))


def test_max_rel_err():
    assert max_rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert max_rel_err(np.array([1.0]), np.array([1.1])) == pytest.approx(0.1 / 1.1)
