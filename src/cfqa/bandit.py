"""A three-armed bandit that isolates the actor-critic update rule.

States are random rows, rewards depend on the action only: one target arm
pays 1.0, the others 0.0 (or all arms pay 1.0 in the symmetric control).
If the losses and optimizer are wired correctly the policy must saturate on
the target arm and the critic must approach the optimal expected reward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controller import (actor_critic_update, actor_policy,
                         create_controller_params, critic_value)
from .params import ParamStore
from .tensor import Tape, Tensor, add, pick


@dataclass
class BanditReport:
    target_action: int
    final_target_prob: float
    final_value: float
    updates_to_threshold: int      # -1 when the threshold was never reached
    final_probs: tuple[float, float, float]
    prob_history: list[float] = field(default_factory=list)


def run_bandit_check(seed: int, updates: int = 2000, gamma: float = 0.9,
                     d_model: int = 8, gru_size: int = 12,
                     ctx_rows: int = 3, symmetric: bool = False,
                     threshold: float = 0.95, rho: float = 0.95,
                     eps: float = 1e-6) -> BanditReport:
    """Train actor and critic on the bandit; report convergence statistics."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xBA4D17,)))
    store = ParamStore(rho=rho, eps=eps)
    create_controller_params(store, d_model, gru_size, rng)
    target = int(seed) % 3
    probe_states = [rng.normal(0.0, 1.0, size=(ctx_rows, d_model))
                    for _ in range(8)]
    probe_seq = Tensor(np.concatenate(probe_states))
    probe_lengths = [ctx_rows] * len(probe_states)

    def probe() -> tuple[np.ndarray, float]:
        """Mean action probabilities and mean value over the probe states,
        read by one packed actor and one packed critic call."""
        probs, _ = actor_policy(probe_seq, store, gru_size, None, probe_lengths)
        values = critic_value(probe_seq, store, gru_size, lengths=probe_lengths)
        return (probs.data.mean(axis=0, dtype=np.float64),
                float(values.data.mean(dtype=np.float64)))

    history = []
    reached = -1
    for update in range(updates):
        state_data = rng.normal(0.0, 1.0, size=(ctx_rows, d_model))
        with Tape() as tape:
            state = Tensor(state_data)
            probs, logp = actor_policy(state, store, gru_size, None, [ctx_rows])
            value = critic_value(state, store, gru_size, lengths=[ctx_rows])
            p = probs.data[0].astype(np.float64)
            action = int(rng.choice(3, p=p / p.sum()))
            reward = 1.0 if (symmetric or action == target) else 0.0
            loss_actor, loss_critic, _ = actor_critic_update(
                pick(logp, ([0], [action])), value, [reward], [1], gamma)
            tape.backward(add(loss_actor, loss_critic))
        store.apply_gradients()
        if (update + 1) % 50 == 0:
            prob = float(probe()[0][target])
            history.append(prob)
            if reached < 0 and prob > threshold:
                reached = update + 1

    final_probs, final_value = probe()
    return BanditReport(
        target_action=target,
        final_target_prob=float(final_probs[target]),
        final_value=final_value,
        updates_to_threshold=reached,
        final_probs=tuple(float(x) for x in final_probs),
        prob_history=history,
    )
