import math

import numpy as np
import pytest

from raresed.numerics import AdamState, adam_step, sigmoid


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_large_positive_is_stable(self):
        # f64 rounds sigmoid(709) up to exactly 1.0; the point is no
        # overflow, no NaN, and saturation from below.
        v = sigmoid(709.0)
        assert np.isfinite(v)
        assert v <= 1.0
        assert 1.0 - v <= 1e-300

    def test_large_negative_is_stable(self):
        v = sigmoid(-709.0)
        assert np.isfinite(v)
        assert 0.0 <= v < 1e-300

    def test_log3(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-700.0, 700.0, size=2000)
        total = sigmoid(z) + sigmoid(-z)
        assert np.all(np.abs(total - 1.0) <= 1e-15)

    def test_array_and_scalar_forms(self):
        arr = sigmoid(np.array([0.0, 1.0]))
        assert arr.shape == (2,)
        assert isinstance(sigmoid(1.0), float)


class TestAdam:
    def test_zero_gradients_leave_params_alone(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.fresh(3, stepsize=0.1)
        adam_step(params, np.zeros(3), state)
        assert np.array_equal(params, [1.0, -2.0, 3.0])
        assert state.t == 1  # the state is stepped in place

    def test_first_step_magnitude_near_stepsize(self):
        # By hand at t=1 with unit gradient: m_hat = 1, v_hat = 1, so the
        # step is eta / (1 + eps).
        eta = 1e-4
        params = np.array([0.0])
        adam_step(params, np.array([1.0]), AdamState.fresh(1, stepsize=eta))
        assert abs(params[0] + eta) / eta < 1e-6
        assert params[0] == pytest.approx(-eta / (1.0 + 1e-8), rel=1e-12)

    def test_constant_gradient_descends(self):
        params = np.array([0.7])
        state = AdamState.fresh(1, stepsize=0.05)
        adam_step(params, np.array([2.5]), state)
        p1 = params[0]
        adam_step(params, np.array([2.5]), state)
        assert p1 < 0.7
        assert params[0] < p1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(2), AdamState.fresh(3))
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.zeros(2), AdamState.fresh(3))

    def test_sign_consistency(self):
        rng = np.random.default_rng(5)
        params = rng.standard_normal(40)
        grads = rng.standard_normal(40)
        pos, neg = params.copy(), params.copy()
        adam_step(pos, grads, AdamState.fresh(40, stepsize=0.01))
        adam_step(neg, -grads, AdamState.fresh(40, stepsize=0.01))
        assert np.all(np.abs((pos - params) + (neg - params)) <= 1e-15)

    def test_matches_textbook_update_bit_for_bit(self):
        # The in-place update against the out-of-place formula, step by step.
        rng = np.random.default_rng(6)
        params = rng.standard_normal(30)
        state = AdamState.fresh(30, stepsize=0.002)
        p, m, v = params.copy(), np.zeros(30), np.zeros(30)
        for t in range(1, 8):
            g = rng.standard_normal(30)
            adam_step(params, g, state)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            p = p - 0.002 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert params.tobytes() == p.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        assert state.t == 7
