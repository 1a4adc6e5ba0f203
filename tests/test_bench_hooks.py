"""The hooks the benchmark under ``perfbench/`` patches still exist, and
``train()`` still passes through the one it wraps once per episode."""

import importlib.util
from pathlib import Path

import numpy as np

import cfqa.train
from cfqa.checks import tiny_config, tiny_example, toy_vocab
from cfqa.model import QaModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patch_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _ in tracing.PATCH_POINTS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_train_plays_each_episode_through_run_episode(monkeypatch):
    # the benchmark wraps cfqa.train.run_episode to check every episode of
    # an update, and counts one call per episode
    vocab = toy_vocab()
    cfg = tiny_config(updates=2, batch_size=3)
    model = QaModel(cfg, vocab, seed=0)
    rng = np.random.default_rng(0)
    examples = [tiny_example(rng, vocab) for _ in range(4)]
    for i, ex in enumerate(examples):
        ex.id = f"h{i}"
    played = []
    run_episode = cfqa.train.run_episode

    def counting(*args, **kwargs):
        played.append(args[1].id)
        return run_episode(*args, **kwargs)

    monkeypatch.setattr(cfqa.train, "run_episode", counting)
    cfqa.train.train(model, examples, cfg)
    assert len(played) == cfg.updates * cfg.batch_size
