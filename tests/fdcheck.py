"""Shared helpers: random fixtures and the finite-difference gradient check.

Central differences in f64 have a hard resolution limit: each loss
evaluation is quantized to ulp(|loss|), so the FD quotient carries
absolute noise of a few ulp(|loss|) / (2 * step) -- about 1e-11 for
unit-magnitude losses at step 1e-5. Coordinates whose gradients sit
below that resolution therefore get an absolute comparison at the noise
scale instead of a relative one; everything FD can resolve is held to
the relative tolerance.
"""

from __future__ import annotations

import numpy as np

from raresed.data import Utterance
from raresed.detector import (
    DEFAULT_WINDOW_MARGIN,
    EventModel,
    _group_heads,
    _utterance_groups,
    batch_loss_and_gradients,
)

FD_STEP = 1e-5
REL_TOL = 1e-4
DENOM_FLOOR = 1e-8
# Below this gradient magnitude, f64 central differences at FD_STEP
# cannot certify 1e-4 relative accuracy; use the absolute bound instead.
FD_RESOLUTION = 1e-5
ABS_TOL = 1e-9


def random_utterance(rng: np.random.Generator, dim: int, t_len: int,
                     positive: bool, id: str = "u") -> Utterance:
    features = rng.standard_normal((dim, t_len))
    if not positive:
        return Utterance.negative(id, features)
    onset = int(rng.integers(1, t_len + 1))
    offset = int(rng.integers(onset, t_len + 1))
    return Utterance.positive(id, features, onset, offset)


def batch_loss(model: EventModel, batch, alpha: float,
               margin: int = DEFAULT_WINDOW_MARGIN) -> float:
    """Mean total loss over the batch with no BPTT: the loss
    batch_loss_and_gradients returns, from the same groups in the same
    order."""
    total = 0.0
    for group in _utterance_groups(batch):
        total += _group_heads(model, group, alpha, margin)[0]
    return total / len(batch)


def fd_gradient_errors(model: EventModel, batch, alpha: float, margin: int,
                       coords=None, step: float = FD_STEP) -> tuple[float, float]:
    """(worst relative error above FD resolution, worst absolute below).

    ``coords`` restricts the check to a coordinate subset; default all.
    The analytic gradient comes from batch_loss_and_gradients; the probes
    only need the loss, so they use the forward-only batch_loss.
    """
    loss0, analytic = batch_loss_and_gradients(model, batch, alpha, margin)
    assert np.isfinite(loss0)
    theta = model.flatten()
    if coords is None:
        coords = np.arange(theta.size)
    max_rel = 0.0
    max_abs = 0.0
    for i in coords:
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        loss_up = batch_loss(model.with_flat(up), batch, alpha, margin)
        loss_down = batch_loss(model.with_flat(down), batch, alpha, margin)
        fd = (loss_up - loss_down) / (2.0 * step)
        diff = abs(analytic[i] - fd)
        magnitude = max(abs(analytic[i]), abs(fd))
        if magnitude >= FD_RESOLUTION:
            max_rel = max(max_rel, diff / max(magnitude, DENOM_FLOOR))
        else:
            max_abs = max(max_abs, diff)
    return max_rel, max_abs


def assert_gradients_match(model: EventModel, batch, alpha: float, margin: int,
                           coords=None) -> tuple[float, float]:
    max_rel, max_abs = fd_gradient_errors(model, batch, alpha, margin, coords)
    assert max_rel < REL_TOL, f"relative gradient error {max_rel:.3e}"
    assert max_abs < ABS_TOL, f"sub-resolution gradient drift {max_abs:.3e}"
    return max_rel, max_abs
