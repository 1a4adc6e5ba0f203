"""Batch training: roll out episodes, sum their losses, one optimizer step."""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Optional

import numpy as np

from .config import RunConfig
from .controller import actor_critic_update
from .episode import episode_rng, evaluate, run_episode
from .model import QaModel
from .tensor import Tape, add
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


def train(model: QaModel, train_set: list[QAExample], cfg: RunConfig,
          eval_set: Optional[list[QAExample]] = None,
          log_line: Optional[Callable[[str], None]] = None) -> dict:
    """Run ``cfg.updates`` optimizer steps; returns summary statistics."""
    sampler = _ExampleSampler(len(train_set), cfg.seed)
    passes: Counter = Counter()
    history = []
    last_eval = None
    for update in range(cfg.updates):
        idxs = sampler.draw(cfg.batch_size)
        action_hist: Counter = Counter()
        deltas_all: list[float] = []
        la_sum = lc_sum = aux_sum = 0.0
        em_sum = 0
        with Tape() as tape:
            total = None
            for i in idxs:
                example = train_set[i]
                rng = episode_rng(cfg.seed, example.id, passes[example.id])
                passes[example.id] += 1
                result = run_episode(model, example, cfg, "train", rng)
                loss_actor, loss_critic, deltas = actor_critic_update(
                    result.trajectory, cfg.gamma)
                loss = add(loss_actor, loss_critic)
                for aux in result.aux_losses:
                    loss = add(loss, aux)
                    aux_sum += float(aux.item())
                total = loss if total is None else add(total, loss)
                la_sum += float(loss_actor.item())
                lc_sum += float(loss_critic.item())
                deltas_all.extend(deltas)
                em_sum += result.em
                for rec in result.steps:
                    action_hist[rec.action] += 1
            tape.backward(total)
        model.store.apply_gradients()
        record = {
            "update": update,
            "loss_actor": la_sum / cfg.batch_size,
            "loss_critic": lc_sum / cfg.batch_size,
            "loss_aux": aux_sum / cfg.batch_size,
            "mean_delta": float(np.mean(deltas_all)) if deltas_all else 0.0,
            "train_em": em_sum / cfg.batch_size,
            "actions": dict(action_hist),
            "skipped_nonfinite": model.store.skipped_nonfinite,
        }
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
