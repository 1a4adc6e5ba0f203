"""Action selection: state building, policy/value heads, rewards, losses.

The actor and critic are two independent GRUs read over the same state
sequence (encoded context, a separator row, encoded question). The actor
ends in a 3-way softmax over answer/select/excise; the critic in a scalar.
Update rule: per-transition temporal-difference error delta = r + gamma *
v_next - v; the actor loss weights -log pi(a) by delta treated as a
constant, the critic regresses delta^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Union

import numpy as np

from . import tensor as T
from .encoder import Encoded
from .errors import ContractError
from .metrics import best_f1
from .nn import create_gru, gru_params, run_gru
from .params import ParamStore
from .subcontext import Excision
from .tensor import Tensor
from .text import TokenDoc, contains_any_answer


class ActionId(IntEnum):
    """The three policy choices, in fixed head order."""
    ANSWER = 0
    SELECT = 1
    EXCISE = 2


@dataclass
class Answered:
    tokens: list[int]
    start: int
    end: int


@dataclass
class Narrowed:
    kept_sentences: list[int]


@dataclass
class Excised:
    excision: Excision


ActionOutcome = Union[Answered, Narrowed, Excised]


@dataclass
class Transition:
    """One step of a trajectory as the actor-critic update reads it.

    ``train()`` builds these from the recorded packed actor and critic pass
    over a batch's states, so every tensor is live on the update's tape:
    ``log_prob`` is the taken action's log-probability (plus the kept
    sentences' on a SELECT step), ``value`` the state's critic value and
    ``next_value`` the next state's.
    """
    action: ActionId
    log_prob: Tensor
    value: Tensor
    reward: float
    next_value: Optional[Tensor]   # None at the terminal step


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


def actor_logits(state_seq: Tensor, store: ParamStore, gru_size: int,
                 lengths=None) -> Tensor:
    h = run_gru(state_seq, gru_params(store, "actor.gru"), gru_size, lengths)
    return T.add(T.matmul(h, store["actor.head_w"]), store["actor.head_b"])


def actor_policy(state_seq: Tensor, store: ParamStore, gru_size: int,
                 action_mask: Optional[np.ndarray] = None,
                 lengths=None) -> tuple[Tensor, Tensor]:
    """(probabilities, log-probabilities) over the three actions.

    Masked actions get probability exactly zero; the rest renormalize. With
    ``lengths``, ``state_seq`` packs that many states back to back (see
    ``run_gru``), ``action_mask`` is [B x 3] and both outputs are [B x 3];
    without, one state gives [3] outputs for a [3] mask.
    """
    logits = actor_logits(state_seq, store, gru_size, lengths)
    probs = T.softmax(logits, axis=-1, mask=action_mask)
    log_probs = T.log_softmax(logits, axis=-1, mask=action_mask)
    return probs, log_probs


def critic_value(state_seq: Tensor, store: ParamStore, gru_size: int,
                 lengths=None) -> Tensor:
    """State value: a scalar for one state, [B] for packed ``lengths``."""
    h = run_gru(state_seq, gru_params(store, "critic.gru"), gru_size, lengths)
    return T.add(T.matmul(h, store["critic.head_w"]),
                 T.pick(store["critic.head_b"], 0))


def compute_reward(action: ActionId, outcome: ActionOutcome,
                   gold_answers: list[list[int]],
                   pre_ctx: TokenDoc, post_ctx: Optional[TokenDoc]) -> float:
    """Raw step reward: answer F1, or gold containment after narrowing/excision."""
    if action is ActionId.ANSWER:
        if not isinstance(outcome, Answered):
            raise ContractError("answer action requires an Answered outcome")
        return float(best_f1(outcome.tokens, gold_answers))
    if action is ActionId.SELECT and not isinstance(outcome, Narrowed):
        raise ContractError("select action requires a Narrowed outcome")
    if action is ActionId.EXCISE and not isinstance(outcome, Excised):
        raise ContractError("excise action requires an Excised outcome")
    if post_ctx is None:
        raise ContractError("narrowing and excision need the resulting context")
    return 1.0 if contains_any_answer(post_ctx, gold_answers) else 0.0


def actor_critic_update(trajectory: list[Transition], gamma: float,
                        frozen_deltas: Optional[list[float]] = None
                        ) -> tuple[Tensor, Tensor, list[float]]:
    """Summed actor and critic losses over one trajectory.

    The advantage weight in the actor loss is the numeric TD error, so no
    gradient reaches the critic through the actor term. The critic term is
    the squared TD error built from live value tensors. ``frozen_deltas``
    substitutes externally fixed advantage weights, which is how the
    stop-gradient contract stays testable against finite differences.
    """
    if not trajectory:
        raise ContractError("cannot update from an empty trajectory")
    if trajectory[-1].next_value is not None:
        raise ContractError("terminal transition must have next_value=None")
    actor_terms = []
    critic_terms = []
    deltas = []
    for i, tr in enumerate(trajectory):
        v_next = 0.0 if tr.next_value is None else float(tr.next_value.item())
        delta = tr.reward + gamma * v_next - float(tr.value.item())
        if frozen_deltas is not None:
            delta = frozen_deltas[i]
        deltas.append(delta)
        actor_terms.append(T.mul(tr.log_prob, -delta))
        if tr.next_value is None:
            td = T.sub(tr.reward, tr.value)
        else:
            td = T.sub(T.add(tr.reward, T.mul(tr.next_value, gamma)), tr.value)
        critic_terms.append(T.square(td))
    loss_actor = _sum_scalars(actor_terms)
    loss_critic = _sum_scalars(critic_terms)
    return loss_actor, loss_critic, deltas


def entropy_of(probs: Tensor, log_probs: Tensor) -> Tensor:
    """Policy entropy, summed over every row given; masked actions
    contribute zero."""
    return T.mul(T.reduce_sum(T.mul(probs, log_probs)), -1.0)


def _sum_scalars(terms: list[Tensor]) -> Tensor:
    out = terms[0]
    for t in terms[1:]:
        out = T.add(out, t)
    return out
