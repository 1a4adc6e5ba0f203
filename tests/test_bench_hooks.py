"""The hooks the benchmark under ``perfbench/`` patches still exist,
``train()`` still passes through the one it wraps once per episode, a
spent tape still counts the ops it recorded, and a step record subclass
with the benchmark's constructor builds every step."""

import importlib.util
import weakref
from pathlib import Path

import numpy as np

import cfqa.episode
import cfqa.train
from cfqa.checks import tiny_config, tiny_example, toy_vocab
from cfqa.config import RunConfig
from cfqa.model import QaModel
from cfqa.tensor import Tape
from helpers import ScriptedModel, make_example

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


def test_a_swept_tape_keeps_its_op_count_and_frees_what_its_ops_saved(monkeypatch):
    # the benchmark reads len(tape.nodes) after backward returns as the
    # update's tensor.tape_nodes, while the sweep frees each op's arrays
    recorded, counted, saved = [0], [], []
    record, backward = Tape.record, Tape.backward

    def counting(self, *args):
        recorded[0] += 1
        return record(self, *args)

    def sweeping(self, loss):
        states = []
        for node in self.nodes:
            names = node.vjp.__code__.co_freevars
            if "h_prev" in names:     # a GRU's states, read only by its vjp
                states.append(weakref.ref(
                    node.vjp.__closure__[names.index("h_prev")].cell_contents))
        backward(self, loss)
        counted.append((recorded[0], len(self.nodes)))
        saved.append([ref() is None for ref in states])
        recorded[0] = 0

    monkeypatch.setattr(Tape, "record", counting)
    monkeypatch.setattr(Tape, "backward", sweeping)
    vocab = toy_vocab()
    cfg = tiny_config(updates=2, batch_size=2)
    rng = np.random.default_rng(6)
    examples = [tiny_example(rng, vocab) for _ in range(3)]
    cfqa.train.train(QaModel(cfg, vocab, seed=6), examples, cfg)
    assert len(counted) == cfg.updates
    assert all(ops == nodes > 0 for ops, nodes in counted)
    # the actor's and the critic's states, dead once backward has returned
    assert saved == [[True, True]] * cfg.updates


def test_a_step_record_with_the_benchmarks_constructor_builds_every_step(monkeypatch):
    # the benchmark substitutes a StepRecord subclass whose constructor takes
    # (action, ctx_tokens, reward, span) only, so the engine builds each
    # record from those, through the module's name, and sets the rest
    class FourArguments(cfqa.episode.StepRecord):
        def __init__(self, action, ctx_tokens, reward, span=None):
            super().__init__(action, ctx_tokens, reward, span)

    monkeypatch.setattr(cfqa.episode, "StepRecord", FourArguments)
    cfg = RunConfig(d_model=4, step_cap=5, k_initial=5, max_span_len=3,
                    batch_size=4)
    rng = np.random.default_rng(40)
    actions = set()
    for case in range(20):
        ex = make_example(rng, n_sentences=5, example_id=f"k{case}")
        model = ScriptedModel(seed=case, max_span_len=cfg.max_span_len)
        for mode in ("eval", "train"):
            result = cfqa.episode.run_episode(model, ex, cfg, mode,
                                              cfqa.episode.episode_rng(0, ex.id))
            assert all(type(rec) is FourArguments for rec in result.steps)
            actions.update(rec.action for rec in result.steps)
    assert actions == {"answer", "select", "excise"}
    _, rows = cfqa.episode.evaluate(ScriptedModel(seed=41, max_span_len=3),
                                    [ex], cfg)
    assert rows[0]["steps"]
