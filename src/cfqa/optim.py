"""AdaDelta parameter updates (accumulated-RMS step sizing).

Every parameter trains at Zeiler's published decay ``RHO`` and conditioning
term ``EPS`` (arXiv 1212.5701).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

RHO = 0.95
EPS = 1e-6


class AdaDeltaSlot:
    """Per-parameter accumulators for the AdaDelta rule."""

    def __init__(self, shape, dtype=np.float32):
        self.accum_grad_sq = np.zeros(shape, dtype=dtype)
        self.accum_update_sq = np.zeros(shape, dtype=dtype)


def adadelta_update(param: np.ndarray, grad: np.ndarray, slot: AdaDeltaSlot) -> None:
    """Apply one AdaDelta step to ``param`` in place.

    Accumulate decayed grad^2, scale the step by the RMS ratio of past
    updates to past gradients, then accumulate decayed update^2. The step is
    elementwise opposed to the gradient; there is no external learning rate.
    """
    if param.shape != grad.shape or param.shape != slot.accum_grad_sq.shape:
        raise ShapeError(
            f"parameter {param.shape}, gradient {grad.shape} and slot "
            f"{slot.accum_grad_sq.shape} must share one shape")
    slot.accum_grad_sq *= RHO
    slot.accum_grad_sq += (1.0 - RHO) * grad * grad
    delta = -np.sqrt(slot.accum_update_sq + EPS) / np.sqrt(slot.accum_grad_sq + EPS) * grad
    param += delta
    slot.accum_update_sq *= RHO
    slot.accum_update_sq += (1.0 - RHO) * delta * delta
