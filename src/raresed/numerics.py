"""Dense numeric primitives: the stable logistic function and the ADAM
optimizer.

Everything runs in 64-bit floats. That is a hard requirement: the
finite-difference gradient checks in the test suite compare against
analytic gradients at 1e-4 relative tolerance, which 32-bit arithmetic
cannot reach.

adam_step updates the parameter vector and the optimizer state in place.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    d = 1.0 + e
    out = np.where(z >= 0.0, 1.0 / d, e / d)
    return float(out) if out.ndim == 0 else out


# ADAM moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates, step count and stepsize."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    stepsize: float = 1e-4

    @classmethod
    def fresh(cls, n: int, stepsize: float = 1e-4) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), stepsize=stepsize)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One ADAM update with bias correction, made in place on the float64
    vector ``params`` and on ``state``."""
    grads = as_f64(grads)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"adam_step length mismatch: params {params.shape}, "
            f"grads {grads.shape}, state {state.m.shape}"
        )
    state.t += 1
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grads
    state.v *= BETA2
    state.v += (1.0 - BETA2) * (grads * grads)
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    params -= state.stepsize * m_hat / (np.sqrt(v_hat) + EPS)
