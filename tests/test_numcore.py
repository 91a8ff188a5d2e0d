import numpy as np
import pytest

from dgkan.numcore import (AdamState, ContractViolation, RngStream, adam_step, finite_diff_grad,
                           max_rel_err)


class TestAdam:
    def test_single_step_hand_value(self):
        # one bias-corrected step: m_hat = v_hat = 1, update = -lr / (1 + eps)
        params, state = adam_step(np.array([0.0]), np.array([1.0]), AdamState.init(1, lr=0.1))
        assert params[0] == pytest.approx(-0.1 * 1.0 / (1.0 + 1e-8), abs=1e-12)
        assert state.step_count == 1

    def test_zero_gradients_leave_params_bit_identical(self):
        params = np.array([0.5, -1.25, 3.0])
        state = AdamState.init(3, lr=0.01)
        original = params.tobytes()
        for _ in range(7):
            params, state = adam_step(params, np.zeros(3), state)
        assert params.tobytes() == original
        assert state.step_count == 7
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_deterministic(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.3, -0.7])
        s = AdamState.init(2, lr=0.05)
        out1 = adam_step(p, g, s)
        out2 = adam_step(p, g, AdamState.init(2, lr=0.05))
        assert np.array_equal(out1[0], out2[0])

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            adam_step(np.zeros(2), np.zeros(3), AdamState.init(2, lr=0.1))

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(ContractViolation, match="non-finite"):
            adam_step(np.zeros(2), np.array([1.0, np.nan]), AdamState.init(2, lr=0.1))

    def test_hyperparameter_validation(self):
        with pytest.raises(ContractViolation):
            AdamState(m=np.zeros(1), v=np.zeros(1), beta1=1.5)
        with pytest.raises(ContractViolation):
            AdamState(m=np.zeros(1), v=np.zeros(1), lr=-1.0)


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

    def test_string_and_int_path_parts(self):
        s = RngStream(3).substream("task", 2, "batches")
        t = RngStream(3).substream("task", 2, "batches")
        assert np.array_equal(s.integers(0, 100, 50), t.integers(0, 100, 50))


def test_max_rel_err():
    assert max_rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert max_rel_err(np.array([1.0]), np.array([1.1])) == pytest.approx(0.1 / 1.1)
