"""Action selection: state building, policy/value heads, losses.

The actor and critic are two independent GRUs read over the same state
sequence (encoded context, a separator row, encoded question). Every read
packs B states back to back, B = 1 included. The actor ends in a 3-way
softmax over answer/select/excise per state; the critic in a scalar per
state. Update rule: per-step temporal-difference error delta = r +
gamma * v_next - v, computed as one vector over the steps of a batch of
episodes; the actor loss weights -log pi(a) by delta treated as a
constant, the critic regresses delta^2. Only the answer step is rewarded,
with its F1; every SELECT and EXCISE step gets 0.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional

import numpy as np

from . import tensor as T
from .encoder import Encoded
from .errors import ContractError
from .nn import create_gru, gru_params, run_gru
from .params import ParamStore
from .tensor import Tensor


class ActionId(IntEnum):
    """The three policy choices, in fixed head order."""
    ANSWER = 0
    SELECT = 1
    EXCISE = 2


def create_controller_params(store: ParamStore, d_model: int, gru_size: int,
                             rng: np.random.Generator) -> None:
    store.create("state.sep", (d_model,), rng, fan_in=d_model)
    create_gru(store, "actor.gru", d_model, gru_size, rng)
    store.create("actor.head_w", (gru_size, 3), rng, fan_in=gru_size)
    store.create("actor.head_b", (3,), rng, fan_in=0)
    create_gru(store, "critic.gru", d_model, gru_size, rng)
    store.create("critic.head_w", (gru_size,), rng, fan_in=gru_size)
    store.create("critic.head_b", (1,), rng, fan_in=0)


def build_state(ctx_enc: Encoded, question_rows: Tensor, store: ParamStore,
                max_state_tokens: int = 512) -> Tensor:
    """Sequence fed to both GRUs: context rows, separator row, question rows.

    A context of up to ``max_state_tokens`` rows enters whole. A longer one
    enters by its first ``(max_state_tokens + 1) // 2`` and last
    ``max_state_tokens // 2`` rows, and only those rows of its encoder block
    are computed here; the acting modules still see the full context.
    """
    n = ctx_enc.n_rows
    if n > max_state_tokens:
        head = (max_state_tokens + 1) // 2
        tail = max_state_tokens - head
        ctx_rows = ctx_enc.rows(np.r_[0:head, n - tail:n])
    else:
        ctx_rows = ctx_enc.matrix
    sep = T.reshape(store["state.sep"], (1, ctx_rows.data.shape[1]))
    return T.concat([ctx_rows, sep, question_rows], axis=0)


def actor_policy(state_seq: Tensor, store: ParamStore,
                 action_mask: Optional[np.ndarray], lengths) -> tuple[Tensor, Tensor]:
    """(probabilities, log-probabilities) over the three actions, [B x 3]
    each for the B states ``state_seq`` packs back to back (see
    ``run_gru``) and their [B x 3] ``action_mask``.

    Masked actions get probability exactly zero; the rest renormalize.
    """
    h = run_gru(state_seq, gru_params(store, "actor.gru"), lengths)
    logits = T.add(T.matmul(h, store["actor.head_w"]), store["actor.head_b"])
    probs = T.softmax(logits, axis=-1, mask=action_mask)
    log_probs = T.log_softmax(logits, axis=-1, mask=action_mask)
    return probs, log_probs


def critic_value(state_seq: Tensor, store: ParamStore, lengths) -> Tensor:
    """State values, [B] for the B states ``state_seq`` packs."""
    h = run_gru(state_seq, gru_params(store, "critic.gru"), lengths)
    return T.add(T.matmul(h, store["critic.head_w"]),
                 T.pick(store["critic.head_b"], 0))


def actor_critic_update(log_probs: Tensor, values: Tensor, rewards, lengths,
                        gamma: float, frozen_deltas: Optional[np.ndarray] = None
                        ) -> tuple[Tensor, Tensor, np.ndarray]:
    """Summed actor and critic losses over the steps of one or more episodes.

    ``log_probs`` (the taken actions' log-probabilities), ``values`` (the
    states' critic values) and ``rewards`` hold N steps packed back to back,
    and ``lengths`` splits them into episodes; the last step of each
    episode has next value 0. Returns the two losses and the [N] numeric
    TD errors, in float64. The advantage weight in the actor loss is the
    numeric TD error, so no gradient reaches the critic through the actor
    term. The critic term is the squared TD error built from the live
    values. ``frozen_deltas`` substitutes externally fixed advantage
    weights, which is how the stop-gradient contract stays testable against
    finite differences.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    lens = np.asarray(lengths)
    n = rewards.size
    if not n or not log_probs.data.shape == values.data.shape == rewards.shape == (n,):
        raise ContractError(f"log_probs {log_probs.data.shape}, values "
                            f"{values.data.shape} and rewards {rewards.shape} "
                            "must be the same non-empty vector shape")
    if lens.ndim != 1 or not lens.size or lens.min() < 1 or lens.sum() != n:
        raise ContractError(f"episode lengths {lens.tolist()} must be positive "
                            f"and sum to the {n} steps")
    # row i of ``step`` maps the values to gamma * v[i + 1] - v[i], with no
    # next value at the last row of an episode
    step = gamma * np.eye(n, k=1)
    step[np.cumsum(lens) - 1] = 0.0
    step -= np.eye(n)
    if frozen_deltas is None:
        deltas = rewards + step @ values.data.astype(np.float64)
    else:
        deltas = np.asarray(frozen_deltas, dtype=np.float64)
    dtype = values.data.dtype
    loss_actor = T.matmul(log_probs, Tensor(-deltas, dtype=dtype))
    td = T.add(Tensor(rewards, dtype=dtype), T.matmul(Tensor(step, dtype=dtype), values))
    loss_critic = T.reduce_sum(T.square(td))
    return loss_actor, loss_critic, deltas


def entropy_of(probs: Tensor, log_probs: Tensor) -> Tensor:
    """Policy entropy, summed over every row given; masked actions
    contribute zero."""
    return T.mul(T.reduce_sum(T.mul(probs, log_probs)), -1.0)
