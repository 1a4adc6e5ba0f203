"""The train loop refuses a non-finite update and says so in its log."""

import itertools
import json
import math

import numpy as np

import cfqa.train
from cfqa import tensor as T
from cfqa.checks import tiny_config, tiny_example, toy_vocab
from cfqa.model import QaModel


def test_nonfinite_loss_skips_the_update_and_is_logged(monkeypatch):
    vocab = toy_vocab()
    cfg = tiny_config(updates=2, batch_size=1)
    model = QaModel(cfg, vocab, seed=0)
    examples = [tiny_example(np.random.default_rng(0), vocab)]
    original = cfqa.train.actor_critic_update
    calls = itertools.count()

    def nan_in_first_update(trajectory, gamma):
        loss_actor, loss_critic, deltas = original(trajectory, gamma)
        if next(calls) == 0:  # one episode per update: this is update 0
            loss_actor = T.mul(loss_actor, math.nan)
        return loss_actor, loss_critic, deltas

    monkeypatch.setattr(cfqa.train, "actor_critic_update", nan_in_first_update)
    before = model.store.state_bytes()
    records, states = [], []

    def log_line(line):
        records.append(json.loads(line))
        states.append(model.store.state_bytes())

    cfqa.train.train(model, examples, cfg, log_line=log_line)
    assert states[0] == before
    assert states[1] != before
    assert [r["skipped_nonfinite"] for r in records] == [1, 1]
