"""GRU parameters and sequence runner, and small layer helpers.

The GRU itself is the fused ``tensor.gru_sequence`` op; the per-step
composition of generic tape ops survives only as the oracle in
``cfqa.checks``.
"""

from __future__ import annotations

import numpy as np

from .params import ParamStore
from .tensor import Tensor, add, gru_sequence, matmul, relu


def create_gru(store: ParamStore, prefix: str, d_x: int, d_h: int,
               rng: np.random.Generator) -> None:
    """Allocate GRU weights under ``prefix``.

    Update and reset gate weights share one matrix pair, so
    ``gru_sequence`` projects every input row for both gates in one matmul
    and keeps one ``h @ u_gates`` product per step.
    """
    store.create(f"{prefix}.w_gates", (d_x, 2 * d_h), rng, fan_in=d_x)
    store.create(f"{prefix}.u_gates", (d_h, 2 * d_h), rng, fan_in=d_h)
    store.create(f"{prefix}.b_gates", (2 * d_h,), rng, fan_in=0)
    store.create(f"{prefix}.w_cand", (d_x, d_h), rng, fan_in=d_x)
    store.create(f"{prefix}.u_cand", (d_h, d_h), rng, fan_in=d_h)
    store.create(f"{prefix}.b_cand", (d_h,), rng, fan_in=0)


GRU_KEYS = ("w_gates", "u_gates", "b_gates", "w_cand", "u_cand", "b_cand")


def gru_params(store: ParamStore, prefix: str) -> dict[str, Tensor]:
    return {k: store[f"{prefix}.{k}"] for k in GRU_KEYS}


def run_gru(seq: Tensor, params: dict[str, Tensor], lengths) -> Tensor:
    """Final GRU states of the sequences ``seq`` packs back to back, whose
    row counts are ``lengths``, as [len(lengths) x d_h], d_h the width of
    ``u_cand``: one fused ``gru_sequence`` op, a single tape node for all
    rows."""
    return gru_sequence(seq, lengths, *(params[k] for k in GRU_KEYS))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    return linear(relu(linear(x, w1, b1)), w2, b2)
