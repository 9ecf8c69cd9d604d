"""Dense numeric primitives: the stable logistic function and the ADAM
optimizer.

Everything runs in 64-bit floats. That is a hard requirement: the
finite-difference gradient checks in the test suite compare against
analytic gradients at 1e-4 relative tolerance, which 32-bit arithmetic
cannot reach.

All functions are pure: optimizer state is returned, never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def as_f64(x) -> np.ndarray:
    """Coerce to a float64 ndarray (no copy when already f64)."""
    return np.asarray(x, dtype=np.float64)


def sigmoid(z):
    """Numerically stable logistic function.

    Uses the branch form exp(-|z|) / (1 + exp(-|z|)) so neither branch
    can overflow; safe for |z| well beyond 1e3. Works elementwise on
    arrays; scalars come back as Python floats.
    """
    z = as_f64(z)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AdamState:
    """First/second moment estimates plus hyperparameters.

    Defaults beta1=0.9, beta2=0.999, eps=1e-8; only the stepsize is
    task-specific.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    stepsize: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, n: int, stepsize: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0, stepsize=stepsize,
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: np.ndarray, grads: np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One ADAM update with bias correction.

    Returns (new params, new state); inputs are left untouched.
    """
    params = as_f64(params)
    grads = as_f64(grads)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"adam_step length mismatch: params {params.shape}, "
            f"grads {grads.shape}, state {state.m.shape}"
        )
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * (grads * grads)
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - state.stepsize * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, replace(state, m=m, v=v, t=t)
