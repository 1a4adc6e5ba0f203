"""The train loop: a non-finite update is refused and logged, each update
reads the controller once on its tape and steps beside its gradients
only, and the log says how the policy, the critic, the gradients and the
time moved."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import cfqa.train
from cfqa import tensor as T
from cfqa.checks import tiny_config, tiny_example, toy_vocab
from cfqa.config import RunConfig
from cfqa.episode import episode_rng, run_lockstep
from cfqa.model import QaModel
from cfqa.params import restore_into
from cfqa.synthetic import SyntheticConfig, gen_synthetic
from cfqa.text import build_vocab, examples_from_records


def test_nonfinite_loss_skips_the_update_and_is_logged(monkeypatch):
    vocab = toy_vocab()
    cfg = tiny_config(updates=2, batch_size=1)
    model = QaModel(cfg, vocab, seed=0)
    examples = [tiny_example(np.random.default_rng(0), vocab)]
    original = cfqa.train.actor_critic_update
    calls = itertools.count()

    def nan_in_first_update(*args):
        loss_actor, loss_critic, deltas = original(*args)
        if next(calls) == 0:  # one call per update: this is update 0
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
    # the skipped step logs no norm, as null and not NaN
    assert set(records[0]["grad_norm"].values()) == {None}
    assert all(math.isfinite(v) for v in records[1]["grad_norm"].values())


def _one_update(**overrides):
    """A tiny model, four examples of mixed sizes and a config for one
    ``train()`` update over them."""
    vocab = toy_vocab()
    cfg = tiny_config(updates=1, batch_size=4, **overrides)
    model = QaModel(cfg, vocab, seed=3)
    rng = np.random.default_rng(3)
    examples = []
    for i in range(cfg.batch_size):
        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(1, 5)),
                          tokens_per_sentence=int(rng.integers(2, 6)))
        ex.id = f"u{i}"
        examples.append(ex)
    return model, examples, cfg


def test_evaluation_makes_no_optimizer_slot():
    model, examples, cfg = _one_update()
    cfqa.train.evaluate(model, examples, cfg)
    assert model.store._slots == {}


def test_an_update_makes_slots_for_exactly_the_parameters_it_steps():
    model, examples, cfg = _one_update()
    store = model.store
    store["emb.word"].requires_grad = False     # as freeze_word_emb leaves it
    stepped = []
    real_apply = store.apply_gradients

    def apply_gradients():
        stepped.append({name for name, p in store.items() if p.grad is not None})
        return real_apply()

    store.apply_gradients = apply_gradients
    cfqa.train.train(model, examples, cfg)
    (names,) = stepped
    assert "emb.word" not in names and len(names) > 1
    assert set(store._slots) == names


def test_a_paper_size_update_steps_beside_its_gradients_only():
    # backward frees each taped array once it has read it, and train()
    # drops the episodes and the loss before the step, so when the
    # optimizer starts, what the update allocated is the gradients
    records = gen_synthetic(SyntheticConfig(n_docs=3, sentences_per_doc=(8, 12),
                                            tokens_per_sentence=(5, 9)), seed=7)
    cfg = RunConfig()
    vocab = build_vocab(records, char_width=cfg.char_width)
    examples = examples_from_records(records, vocab, max_doc_tokens=cfg.max_doc_tokens)
    model = QaModel(cfg, vocab)
    store = model.store
    seen = []
    real_apply = store.apply_gradients

    def apply_gradients():
        held, _ = tracemalloc.get_traced_memory()
        seen.append((held, sum(p.grad.nbytes for _, p in store.items()
                               if p.grad is not None)))
        return real_apply()

    store.apply_gradients = apply_gradients
    tracemalloc.start()     # after the model: its parameters are not counted
    try:
        cfqa.train.train(model, examples,
                         cfg.replace(batch_size=len(examples), updates=1, eval_every=0))
    finally:
        tracemalloc.stop()
    ((held, grads),) = seen
    assert grads > 0
    assert held - grads <= 2 ** 20, (held, grads)


def test_one_update_reads_actor_and_critic_once_on_the_tape():
    model, examples, cfg = _one_update()
    calls = []     # (which, under a tape, states read)
    real_policy, real_value = model.policy, model.value

    def policy(state, action_mask, lengths):
        calls.append(("policy", T.active_tape() is not None, len(lengths)))
        return real_policy(state, action_mask, lengths)

    def value(state, lengths):
        calls.append(("value", T.active_tape() is not None, len(lengths)))
        return real_value(state, lengths)

    model.policy, model.value = policy, value
    records = []
    cfqa.train.train(model, examples, cfg,
                     log_line=lambda line: records.append(json.loads(line)))
    (record,) = records
    decisions = sum(record["actions"].values())
    assert decisions > len(examples)      # some episode took several steps
    # acting: one tape-free actor reading per decision, and no critic
    assert [c for c in calls if not c[1]] == [("policy", False, 1)] * decisions
    # learning: every state of the update in one recorded pass of each GRU
    assert [c for c in calls if c[1]] == [("policy", True, decisions),
                                          ("value", True, decisions)]


def test_a_lockstep_batch_learns_as_one_episode_at_a_time():
    # rolled out under a tape at width 1 and at the batch's width, each
    # episode from its own rng, one batch gives the same update loss and
    # the same gradient in every parameter
    vocab = toy_vocab()
    rng = np.random.default_rng(26)
    dataset = []
    for i in range(6):
        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(1, 6)),
                          tokens_per_sentence=int(rng.integers(2, 7)),
                          q_len=int(rng.integers(1, 5)))
        ex.id = f"w{i}"
        dataset.append(ex)
    cfg = tiny_config(seed=26, entropy_coef=0.1)
    model = QaModel(cfg, vocab, seed=26)

    def learn(width):
        with T.Tape() as tape:
            results = run_lockstep(model, dataset, cfg.replace(batch_size=width),
                                   "train", [episode_rng(cfg.seed, ex.id)
                                             for ex in dataset])
            loss, _ = cfqa.train.update_loss(model, results, cfg)
            tape.backward(loss)
        grads = {}
        for name, p in model.store.items():
            grads[name], p.grad = p.grad, None
        return results, loss.item(), grads

    alone, loss, grads = learn(1)
    assert {s.action for r in alone for s in r.steps} == {"answer", "select", "excise"}
    together, wide_loss, wide_grads = learn(len(dataset))
    assert [[s.action for s in r.steps] for r in together] == \
        [[s.action for s in r.steps] for r in alone]
    assert wide_loss == pytest.approx(loss, rel=1e-5)
    assert all(g is not None for g in grads.values())
    for name, g in grads.items():
        np.testing.assert_allclose(wide_grads[name], g, rtol=1e-5,
                                   atol=1e-5 * np.abs(g).max(), err_msg=name)


def test_no_weight_transpose_outlives_an_update():
    # evaluation at width 4 reads packs of several states, whose GRU steps
    # multiply by the recurrent weights' transposes; the evaluation after
    # the update must read the updated weights, as a fresh model does
    model, examples, cfg = _one_update()
    wide = cfg.replace(batch_size=4)
    _, before = cfqa.train.evaluate(model, examples, wide)
    cfqa.train.train(model, examples, cfg)
    _, after = cfqa.train.evaluate(model, examples, wide)
    fresh = QaModel(cfg, model.vocab, seed=4)
    restore_into(fresh.store, {name: p.data for name, p in model.store.items()})
    _, want = cfqa.train.evaluate(fresh, examples, wide)
    probs = [[step["probs"] for step in row["steps"]] for row in after]
    assert probs == [[step["probs"] for step in row["steps"]] for row in want]
    assert probs != [[step["probs"] for step in row["steps"]] for row in before]


def test_weights_are_read_only_while_a_lockstep_run_holds_their_transposes():
    model, examples, cfg = _one_update()
    u_gates = model.store["actor.gru.u_gates"]
    real_policy = model.policy

    def policy_then_write(state, action_mask, lengths):
        out = real_policy(state, action_mask, lengths)
        u_gates.data += 0.0
        return out

    model.policy = policy_then_write
    with pytest.raises(ValueError, match="read-only"):
        cfqa.train.evaluate(model, examples, cfg.replace(batch_size=4))
    u_gates.data += 0.0     # writable again once the run has ended


def test_train_log_records_policy_critic_and_phase_times():
    model, examples, cfg = _one_update(entropy_coef=0.1)
    records = []
    squares = {}      # group -> summed squares of the gradients the step applies
    apply_gradients = model.store.apply_gradients

    def apply_and_measure():
        for name, p in model.store.items():
            if p.grad is not None:
                group = {"m2": "ans"}.get(name.split(".")[0], name.split(".")[0])
                squares[group] = squares.get(group, 0.0) + float(np.sum(
                    p.grad.astype(np.float64) ** 2))
        return apply_gradients()

    model.store.apply_gradients = apply_and_measure
    cfqa.train.train(model, examples, cfg,
                     log_line=lambda line: records.append(json.loads(line)))
    (record,) = records
    norms = record["grad_norm"]
    assert set(norms) == {"emb", "enc", "sel", "ans", "state", "actor", "critic"}
    assert set(squares) <= set(norms)
    for group, norm in norms.items():
        assert norm == pytest.approx(math.sqrt(squares.get(group, 0.0)), rel=1e-5)
    assert min(norms[g] for g in ("emb", "enc", "actor", "critic")) > 0.0
    for key in ("policy_entropy", "mean_value", "rollout_ms", "backward_ms",
                "step_ms"):
        assert math.isfinite(record[key]), key
    assert 0.0 < record["policy_entropy"] <= math.log(3)
    probs = record["mean_action_probs"]
    assert set(probs) == {"answer", "select", "excise"}
    assert all(0.0 <= p <= 1.0 for p in probs.values())
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-5)
    assert min(record[k] for k in ("rollout_ms", "backward_ms", "step_ms")) > 0.0


def test_grad_norms_survive_float32_overflow_and_name_no_norm_for_a_nan():
    model, _, _ = _one_update()
    store = model.store
    store["actor.head_b"].grad = np.full(3, 1e20, dtype=np.float32)   # squares overflow
    store["m2.ff_b1"].grad = np.full(store["m2.ff_b1"].data.shape, 2.0, dtype=np.float32)
    norms = cfqa.train.grad_norms(store)
    assert norms["actor"] == pytest.approx(math.sqrt(3) * 1e20, rel=1e-6)
    assert norms["ans"] == pytest.approx(2.0 * math.sqrt(store["m2.ff_b1"].data.size))
    assert norms["critic"] == 0.0
    store["sel.conv_b"].grad = np.full(store["sel.conv_b"].data.shape, np.nan,
                                       dtype=np.float32)
    assert set(cfqa.train.grad_norms(store).values()) == {None}


def _write_glove(path, vocab, dim):
    """Vectors for half the vocabulary's words, a header line of another
    width, which the loader skips, and rows that differ per word."""
    words = vocab.words[len(vocab.WORD_RESERVED)::2]
    rows = {w: np.round(np.random.default_rng(i).normal(0, 1, dim), 4)
            for i, w in enumerate(words)}
    lines = [f"{len(words)} {dim}"]
    lines += [" ".join([w, *map(str, row)]) for w, row in rows.items()]
    path.write_text("\n".join(lines) + "\n")
    return rows


@pytest.mark.parametrize("freeze", [False, True])
def test_glove_vectors_seed_the_word_table_and_can_be_frozen(tmp_path, freeze):
    path = tmp_path / "vectors.txt"
    rows = _write_glove(path, toy_vocab(), tiny_config().d1)
    model, examples, cfg = _one_update(glove_path=str(path), freeze_word_emb=freeze)
    word = model.store["emb.word"]
    for w in model.vocab.words:
        want = rows.get(w, np.zeros(cfg.d1))
        assert np.array_equal(word.data[model.vocab.word_id(w)],
                              want.astype(np.float32)), w
    before = {name: p.data.copy() for name, p in model.store.items()}
    cfqa.train.train(model, examples, cfg)
    assert model.store.skipped_nonfinite == 0
    moved = {name for name, p in model.store.items()
             if not np.array_equal(p.data, before[name])}
    assert {"emb.char", "enc.proj_w", "actor.head_w"} <= moved
    assert ("emb.word" in moved) is not freeze
