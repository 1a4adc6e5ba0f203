"""Batch training: roll out episodes, read their states in one packed pass,
sum their losses, one optimizer step."""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from typing import Callable, Optional

import numpy as np

from .config import RunConfig
from . import tensor as T
from .controller import ActionId, actor_critic_update, entropy_of
from .episode import EpisodeResult, episode_rng, evaluate, run_episode
from .model import QaModel
from .params import ParamStore
from .tensor import Tape, Tensor
from .text import QAExample


class _ExampleSampler:
    """Epoch-shuffled cycling over the training set, seed-deterministic."""

    def __init__(self, n: int, seed: int):
        self._n = n
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0x08DE,)))
        self._queue: list[int] = []

    def draw(self, count: int) -> list[int]:
        out = []
        while len(out) < count:
            if not self._queue:
                self._queue = list(self._rng.permutation(self._n))
            out.append(int(self._queue.pop()))
        return out


def update_loss(model: QaModel, results: list[EpisodeResult], cfg: RunConfig
                ) -> tuple[Tensor, dict]:
    """The summed loss of one update's episodes, and its train-log fields.

    The state of every step of every episode (``StepRecord.state``) is
    packed back to back and read once by a recorded ``model.policy`` and
    once by a recorded ``model.value`` call, so each GRU runs forward and
    backward once per update. One ``actor_critic_update`` call over all
    those rows gives the actor and critic losses, a row's log-probability
    being its entry for the step's action. The episodes' auxiliary losses
    (the gold sentence's and the gold span's NLL) and the entropy bonus over
    all rows are added to them. Call it under the tape the episodes ran on.
    """
    steps = [rec for result in results for rec in result.steps]
    lengths = [rec.state.data.shape[0] for rec in steps]
    packed = T.concat([rec.state for rec in steps], axis=0)
    masks = np.stack([rec.mask for rec in steps])
    probs, log_probs = model.policy(packed, masks, lengths)
    values = model.value(packed, lengths)

    taken = T.pick(log_probs, (np.arange(len(steps)),
                               [int(ActionId[rec.action.upper()]) for rec in steps]))
    loss_actor, loss_critic, deltas = actor_critic_update(
        taken, values, [rec.reward for rec in steps],
        [len(result.steps) for result in results], cfg.gamma)
    total = T.add(loss_actor, loss_critic)
    aux_sum = 0.0
    for result in results:
        for aux in result.aux_losses:
            total = T.add(total, aux)
            aux_sum += float(aux.item())
    # masked actions have probability 0, so they add nothing here
    entropies = -(probs.data * log_probs.data).sum(axis=1)
    if cfg.entropy_coef > 0.0:
        bonus = T.mul(entropy_of(probs, log_probs), -cfg.entropy_coef)
        total = T.add(total, bonus)
        aux_sum += float(bonus.item())

    n = len(results)
    actions = Counter(rec.action for rec in steps)
    mean_probs = probs.data.mean(axis=0)
    record = {
        "loss_actor": float(loss_actor.item()) / n,
        "loss_critic": float(loss_critic.item()) / n,
        "loss_aux": aux_sum / n,
        "mean_delta": float(np.mean(deltas)),
        "train_em": sum(result.em for result in results) / n,
        "actions": dict(actions),
        "policy_entropy": float(entropies.mean()),
        "mean_action_probs": {action.name.lower(): float(p)
                              for action, p in zip(ActionId, mean_probs)},
        "mean_value": float(values.data.mean()),
    }
    return total, record


# the train log's gradient-norm groups, named by parameter-name prefix
GRAD_GROUPS = ("emb", "enc", "sel", "ans", "state", "actor", "critic")


def grad_norms(store: ParamStore) -> dict[str, Optional[float]]:
    """The L2 norm of the pending gradients of each of ``GRAD_GROUPS``; the
    span extractor's ``m2`` blocks count as ``ans``. Every group is None
    when a gradient holds a NaN or Inf, since the optimizer then skips the
    step."""
    squares = dict.fromkeys(GRAD_GROUPS, 0.0)
    for name, p in store.items():
        if p.grad is not None:
            group = name.split(".", 1)[0]
            g = p.grad.ravel()
            with np.errstate(over="ignore"):
                sq = float(g @ g)
            if not math.isfinite(sq):
                # float32 overflow, or a NaN/Inf entry: only the latter
                # stays non-finite in float64
                sq = float(np.einsum("i,i->", g, g, dtype=np.float64))
            squares["ans" if group == "m2" else group] += sq
    if not all(map(math.isfinite, squares.values())):
        return dict.fromkeys(GRAD_GROUPS)
    return {group: math.sqrt(sq) for group, sq in squares.items()}


def train(model: QaModel, train_set: list[QAExample], cfg: RunConfig,
          eval_set: Optional[list[QAExample]] = None,
          log_line: Optional[Callable[[str], None]] = None) -> dict:
    """Run ``cfg.updates`` optimizer steps; returns summary statistics.

    An update plays its ``cfg.batch_size`` episodes one at a time with
    ``run_episode`` under one tape. The actor acts from tape-free readings
    and the critic does not run. Once the episodes have ended,
    ``update_loss`` reads all their states with one recorded actor and one
    recorded critic pass; one backward and one optimizer step follow. The
    backward sweep frees each taped array once it has read it, and the
    episodes and the loss are dropped before the step, so the norms and the
    optimizer run beside the parameters and their gradients only. Each
    train-log record adds ``grad_norm``, the ``grad_norms`` of the backward
    pass, and the wall-clock totals of the three phases: ``rollout_ms``
    (episodes and the packed pass), ``backward_ms`` and ``step_ms`` (the
    norms and the optimizer step).
    """
    sampler = _ExampleSampler(len(train_set), cfg.seed)
    passes: Counter = Counter()
    history = []
    last_eval = None
    for update in range(cfg.updates):
        idxs = sampler.draw(cfg.batch_size)
        started = time.perf_counter()
        with Tape() as tape:
            results = []
            for i in idxs:
                example = train_set[i]
                rng = episode_rng(cfg.seed, example.id, passes[example.id])
                passes[example.id] += 1
                results.append(run_episode(model, example, cfg, "train", rng))
            total, record = update_loss(model, results, cfg)
            rolled_out = time.perf_counter()
            tape.backward(total)
        backward_done = time.perf_counter()
        # the norms and the step read only the parameters and their grads
        del tape, results, total
        record["grad_norm"] = grad_norms(model.store)
        model.store.apply_gradients()
        stepped = time.perf_counter()
        record.update({
            "update": update,
            "skipped_nonfinite": model.store.skipped_nonfinite,
            "rollout_ms": 1000 * (rolled_out - started),
            "backward_ms": 1000 * (backward_done - rolled_out),
            "step_ms": 1000 * (stepped - backward_done),
        })
        if eval_set and cfg.eval_every and (update + 1) % cfg.eval_every == 0:
            metrics, _ = evaluate(model, eval_set, cfg)
            record["eval"] = metrics.to_dict()
            last_eval = metrics
        history.append(record)
        if log_line:
            log_line(json.dumps(record, sort_keys=True))
    summary = {"updates": cfg.updates, "history": history}
    if eval_set:
        if last_eval is None or cfg.updates % max(1, cfg.eval_every) != 0:
            last_eval, _ = evaluate(model, eval_set, cfg)
        summary["eval"] = last_eval.to_dict()
    return summary
