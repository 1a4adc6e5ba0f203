import numpy as np
import pytest

from cfqa.config import RunConfig
from cfqa.controller import ActionId
from cfqa.episode import (action_mask, episode_rng, evaluate, run_episode,
                          run_lockstep)
from cfqa.errors import ContractError, DataError, ExcisionEmptyError
from helpers import (ScriptedModel, make_example, oracle_components,
                     pinned_policy)


def engine_cfg(**kw):
    base = dict(d_model=4, step_cap=5, k_initial=5, max_span_len=3,
                batch_size=4, updates=0, d1=4, d2=4, k_s=3, n_heads=2,
                gru_size=4)
    base.update(kw)
    return RunConfig(**base)


def test_pinned_answer_policy_terminates_in_one_step():
    rng = np.random.default_rng(0)
    ex = make_example(rng, n_sentences=6)
    cfg = engine_cfg()
    model = ScriptedModel(seed=1, policy_fn=pinned_policy(ActionId.ANSWER),
                          max_span_len=cfg.max_span_len)
    result = run_episode(model, ex, cfg, "eval")
    assert len(result.steps) == 1
    assert result.steps[0].action == "answer"
    assert not result.forced


def test_pinned_select_policy_hits_cap_then_forced_answer():
    rng = np.random.default_rng(1)
    ex = make_example(rng, n_sentences=10)
    cfg = engine_cfg()
    model = ScriptedModel(seed=2, policy_fn=pinned_policy(ActionId.SELECT),
                          max_span_len=cfg.max_span_len)
    result = run_episode(model, ex, cfg, "eval")
    assert len(result.steps) == 6
    assert [s.action for s in result.steps[:-1]] == ["select"] * 5
    assert result.steps[-1].action == "answer"
    assert result.forced


def test_an_eval_select_record_holds_no_state():
    ex = make_example(np.random.default_rng(1), n_sentences=10)
    cfg = engine_cfg()
    for mode, rng in (("eval", None), ("train", np.random.default_rng(0))):
        model = ScriptedModel(seed=2, policy_fn=pinned_policy(ActionId.SELECT),
                              max_span_len=cfg.max_span_len)
        select = run_episode(model, ex, cfg, mode, rng=rng).steps[0]
        assert select.action == "select"
        assert (select.state is None) == (mode == "eval")


def test_select_steps_record_the_sentences_they_kept():
    from cfqa.text import QAExample, TokenDoc

    rng = np.random.default_rng(4)
    # sentences of 1..10 tokens, so the kept set shows in the next step's size
    sentences = [[int(t) for t in rng.integers(10, 200, size=n)]
                 for n in rng.permutation(np.arange(1, 11))]
    doc = TokenDoc(sentences, [[[1, 2]] * len(s) for s in sentences])
    ex = QAExample("ex-0", doc, [11, 12, 13], [[1, 2]] * 3, [sentences[3][:1]])
    cfg = engine_cfg()
    model = ScriptedModel(seed=2, policy_fn=pinned_policy(ActionId.SELECT),
                          max_span_len=cfg.max_span_len)
    _, rows = evaluate(model, [ex], cfg)
    steps = rows[0]["steps"]
    assert [s["action"] for s in steps] == ["select"] * 5 + ["answer"]
    budget = cfg.k_initial
    for step, after in zip(steps, steps[1:]):
        kept = step["kept"]
        assert kept == sorted(kept) and 1 <= len(kept) <= budget
        assert after["ctx_tokens"] == sum(len(sentences[i]) for i in kept)
        sentences = [sentences[i] for i in kept]
        budget = max(1, budget - 1)
    assert steps[-1]["kept"] is None


def test_oracle_policy_reaches_exact_match():
    rng = np.random.default_rng(2)
    ex = make_example(rng, n_sentences=10, gold_sentence=7)
    dist_fn, span_fn = oracle_components(ex.gold_answers)

    def policy(ctx, step):
        return pinned_policy(ActionId.SELECT if step == 0 else ActionId.ANSWER)(ctx, step)

    model = ScriptedModel(seed=3, policy_fn=policy, dist_fn=dist_fn, span_fn=span_fn)
    result = run_episode(model, ex, engine_cfg(), "eval")
    assert len(result.steps) == 2
    assert result.em == 1
    assert result.f1 == 1.0


def test_excise_shrinks_context_and_continues():
    rng = np.random.default_rng(3)
    ex = make_example(rng, n_sentences=4, tokens_per_sentence=6)

    def policy(ctx, step):
        return pinned_policy(ActionId.EXCISE if step == 0 else ActionId.ANSWER)(ctx, step)

    model = ScriptedModel(seed=4, policy_fn=policy,
                          span_fn=lambda ctx, rng: (0, 1))
    result = run_episode(model, ex, engine_cfg(), "eval")
    assert result.steps[0].action == "excise"
    assert result.steps[1].ctx_tokens == result.steps[0].ctx_tokens - 2


def test_full_cover_excise_span_raises_a_named_error():
    rng = np.random.default_rng(4)
    ex = make_example(rng, n_sentences=2, tokens_per_sentence=4)
    # a span longer than max_span_len, which QaModel never decodes: the
    # pre-check runs only on contexts of at most max_span_len tokens, so it
    # cannot mask excise here, and the excision itself refuses
    model = ScriptedModel(seed=5, policy_fn=pinned_policy(ActionId.EXCISE),
                          span_fn=lambda ctx, rng: (0, ctx.n_tokens - 1))
    with pytest.raises(ExcisionEmptyError):
        run_episode(model, ex, engine_cfg(max_span_len=3), "eval")


def test_a_full_cover_span_masks_excise_on_a_short_context():
    rng = np.random.default_rng(4)
    ex = make_example(rng, n_sentences=2, tokens_per_sentence=2)
    model = ScriptedModel(seed=5, policy_fn=pinned_policy(ActionId.EXCISE),
                          span_fn=lambda ctx, rng: (0, ctx.n_tokens - 1))
    result = run_episode(model, ex, engine_cfg(max_span_len=4), "eval")
    assert not result.steps[0].mask[ActionId.EXCISE]
    assert "excise" not in [s.action for s in result.steps]


def arange_dist(ctx, rng):
    # p(sentence i) = (i + 1) / (1 + 2 + ... + n): 1/21 for sentence 0 of 6
    probs = np.arange(1.0, ctx.n_sentences + 1)
    return probs / probs.sum()


def counting_sentence_dist(model):
    """Wrap ``model.sentence_dist`` so that each call is counted."""
    calls = []
    real = model.sentence_dist
    model.sentence_dist = lambda *args: calls.append(1) or real(*args)
    return calls


def test_a_training_document_adds_its_gold_sentence_nll_once():
    # the first SELECT reuses the document's scores, sees the gold in
    # sentence 0 and drops it; the second SELECT reads the kept scores and
    # adds nothing, and the answered context holds no gold span
    ex = make_example(np.random.default_rng(8), n_sentences=6, gold_sentence=0)

    def policy(ctx, step):
        return pinned_policy(ActionId.SELECT if step < 2 else ActionId.ANSWER)(ctx, step)

    cfg = engine_cfg(k_initial=3)
    for mode, rng in (("train", np.random.default_rng(0)), ("eval", None)):
        model = ScriptedModel(seed=8, policy_fn=policy, dist_fn=arange_dist,
                              max_span_len=cfg.max_span_len)
        calls = counting_sentence_dist(model)
        result = run_episode(model, ex, cfg, mode, rng=rng)
        assert [s.action for s in result.steps] == ["select", "select", "answer"]
        assert result.steps[0].kept == [3, 4, 5]
        assert len(calls) == 1
        if mode == "train":
            (loss,) = result.aux_losses
            assert loss.item() == pytest.approx(np.log(21.0), rel=1e-6)
        else:
            assert result.aux_losses == []


def test_a_train_answer_at_the_first_step_adds_the_selector_and_the_span_nll():
    ex = make_example(np.random.default_rng(8), n_sentences=6, gold_sentence=0)
    _, span_fn = oracle_components(ex.gold_answers)
    cfg = engine_cfg()
    for mode, rng in (("train", np.random.default_rng(0)), ("eval", None)):
        model = ScriptedModel(seed=8, policy_fn=pinned_policy(ActionId.ANSWER),
                              dist_fn=arange_dist, span_fn=span_fn)
        calls = counting_sentence_dist(model)
        result = run_episode(model, ex, cfg, mode, rng=rng)
        assert [s.action for s in result.steps] == ["answer"]
        if mode == "eval":
            # eval scores sentences only to SELECT, and learns nothing
            assert calls == [] and result.aux_losses == []
            continue
        assert len(calls) == 1
        sel_nll, span_loss = result.aux_losses
        assert sel_nll.item() == pytest.approx(np.log(21.0), rel=1e-6)
        # the stub's span logits are one-hot over the document's tokens
        n = ex.doc.n_tokens
        assert span_loss.item() == pytest.approx(2 * (np.log(np.e + n - 1) - 1),
                                                 rel=1e-6)


def test_single_sentence_masks_select():
    doc_mask = action_mask(make_example(np.random.default_rng(5), n_sentences=1).doc,
                           forced=False, covers_all_span=False)
    assert not doc_mask[ActionId.SELECT]
    assert doc_mask[ActionId.ANSWER]


def test_only_the_answer_step_is_rewarded():
    # a SELECT or an EXCISE step earns 0 whether or not its context keeps
    # the gold answer; the answer step earns the answer's F1, in both modes
    rng = np.random.default_rng(7)
    ex = make_example(rng, n_sentences=8, gold_sentence=0)
    dist_fn, span_fn = oracle_components(ex.gold_answers)
    cfg = engine_cfg()

    def scripted(*actions):
        return lambda ctx, step: pinned_policy(actions[step])(ctx, step)

    for mode in ("eval", "train"):
        run_rng = episode_rng(8, ex.id) if mode == "train" else None
        oracle = run_episode(
            ScriptedModel(seed=8, dist_fn=dist_fn, span_fn=span_fn,
                          policy_fn=scripted(ActionId.SELECT, ActionId.SELECT,
                                             ActionId.ANSWER)),
            ex, cfg, mode, rng=run_rng)
        assert [s.action for s in oracle.steps] == ["select", "select", "answer"]
        assert [s.reward for s in oracle.steps] == [0.0, 0.0, 1.0]
        # the document holds the gold sentence and the answered context the
        # gold span: train adds both NLLs
        assert len(oracle.aux_losses) == 2 * (mode == "train")

        run_rng = episode_rng(9, ex.id) if mode == "train" else None
        cut = run_episode(
            ScriptedModel(seed=9, max_span_len=cfg.max_span_len,
                          policy_fn=scripted(ActionId.EXCISE, ActionId.SELECT,
                                             ActionId.ANSWER)),
            ex, cfg, mode, rng=run_rng)
        assert [s.action for s in cut.steps] == ["excise", "select", "answer"]
        assert [s.reward for s in cut.steps] == [0.0, 0.0, cut.f1]


def test_invariants_over_random_policies_and_examples():
    cfg = engine_cfg()
    rng = np.random.default_rng(9)
    excisions = 0
    for case in range(300):
        ex = make_example(rng, n_sentences=int(rng.integers(1, 8)),
                          tokens_per_sentence=int(rng.integers(2, 6)),
                          example_id=f"case-{case}")
        model = ScriptedModel(seed=case, max_span_len=cfg.max_span_len)
        result = run_episode(model, ex, cfg, "train",
                             rng=episode_rng(11, ex.id, case))
        assert len(result.steps) <= cfg.step_cap + 1
        actions = [s.action for s in result.steps]
        assert actions.count("answer") == 1
        assert actions[-1] == "answer"
        excisions += actions.count("excise")
        sizes = [s.ctx_tokens for s in result.steps]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert excisions > 0


def test_question_encoding_changed_mid_episode_breaks_the_invariants():
    class MutatesQuestion(ScriptedModel):
        def state(self, ctx_enc, q_enc):
            q_enc.matrix.data += 1.0
            return super().state(ctx_enc, q_enc)

    ex = make_example(np.random.default_rng(19), n_sentences=6)
    cfg = engine_cfg()
    model = MutatesQuestion(seed=19, policy_fn=pinned_policy(ActionId.SELECT),
                            max_span_len=cfg.max_span_len)
    with pytest.raises(ContractError, match="question encoding"):
        run_episode(model, ex, cfg, "eval")


def test_episode_rng_is_deterministic_per_example():
    a = episode_rng(5, "ex-1", 0).integers(0, 1000, 5)
    b = episode_rng(5, "ex-1", 0).integers(0, 1000, 5)
    c = episode_rng(5, "ex-2", 0).integers(0, 1000, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------------------------ evaluate

def test_evaluate_all_answer_policy_props():
    rng = np.random.default_rng(10)
    dataset = [make_example(rng, example_id=f"e{i}") for i in range(5)]
    cfg = engine_cfg()
    model = ScriptedModel(seed=11, policy_fn=pinned_policy(ActionId.ANSWER),
                          max_span_len=cfg.max_span_len)
    metrics, rows = evaluate(model, dataset, cfg)
    assert metrics.action_props == (1.0, 0.0, 0.0)
    assert metrics.avg_steps == 1.0
    assert len(rows) == len(dataset)


def test_evaluate_em_and_f1_hand_case():
    rng = np.random.default_rng(12)
    ex = make_example(rng, n_sentences=3, gold_sentence=0, example_id="h1")
    gold = ex.gold_answers[0]          # two tokens at sentence 0 positions 1..2
    dist_fn, span_fn = oracle_components(ex.gold_answers)
    exact_model = ScriptedModel(seed=13, policy_fn=pinned_policy(ActionId.ANSWER),
                                span_fn=span_fn)
    metrics, _ = evaluate(exact_model, [ex], engine_cfg())
    assert metrics.em == 1.0 and metrics.f1 == 1.0

    half_model = ScriptedModel(seed=14, policy_fn=pinned_policy(ActionId.ANSWER),
                               span_fn=lambda ctx, rng: (1, 1))
    metrics, _ = evaluate(half_model, [ex], engine_cfg())
    assert metrics.em == 0.0
    assert metrics.f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)


def test_evaluate_action_props_match_recount_from_rows():
    rng = np.random.default_rng(15)
    dataset = [make_example(rng, n_sentences=6, example_id=f"r{i}")
               for i in range(20)]
    cfg = engine_cfg()
    model = ScriptedModel(seed=16, max_span_len=cfg.max_span_len)
    metrics, rows = evaluate(model, dataset, cfg)
    counts = {"answer": 0, "select": 0, "excise": 0}
    steps_total = 0
    for row in rows:
        for act in row["actions"].split("|"):
            counts[act] += 1
            steps_total += 1
    total = sum(counts.values())
    assert metrics.action_props[0] == pytest.approx(counts["answer"] / total)
    assert metrics.action_props[1] == pytest.approx(counts["select"] / total)
    assert metrics.action_props[2] == pytest.approx(counts["excise"] / total)
    assert metrics.avg_steps == pytest.approx(steps_total / len(dataset))
    assert sum(metrics.action_props) == pytest.approx(1.0)


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(DataError):
        evaluate(ScriptedModel(seed=17, span_fn=lambda ctx, rng: (0, 0)), [],
                 engine_cfg())


def test_evaluation_is_independent_of_dataset_order():
    # the real model keeps no state across episodes, so each record depends
    # only on its own example
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel

    vocab = toy_vocab()
    rng = np.random.default_rng(18)
    dataset = [tiny_example(rng, vocab) for _ in range(8)]
    for i, ex in enumerate(dataset):
        ex.id = f"t{i}"
    cfg = tiny_config(seed=18)
    model = QaModel(cfg, vocab, seed=18)
    m1, r1 = evaluate(model, dataset, cfg)
    m2, r2 = evaluate(model, dataset[::-1], cfg)
    assert {r["id"]: r for r in r1} == {r["id"]: r for r in r2}
    # the f1 sum runs in a different order
    assert m2.to_dict() == pytest.approx(m1.to_dict())


def test_lockstep_evaluation_matches_one_episode_at_a_time():
    # episodes of 1 to 6 steps over contexts and questions of mixed sizes, so
    # slots free up at different rounds and the packed states differ in length
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel

    vocab = toy_vocab()
    rng = np.random.default_rng(22)
    dataset = []
    for i in range(12):
        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(1, 6)),
                          tokens_per_sentence=int(rng.integers(2, 7)),
                          q_len=int(rng.integers(1, 5)))
        ex.id = f"m{i}"
        dataset.append(ex)
    cfg = tiny_config(seed=22)
    model = QaModel(cfg, vocab, seed=22)
    serial = [run_episode(model, ex, cfg, "eval") for ex in dataset]
    assert {a for r in serial for a in (s.action for s in r.steps)} == \
        {"answer", "select", "excise"}
    assert len({len(r.steps) for r in serial}) >= 3

    for width in (1, 3, len(dataset) + 1):
        wide = cfg.replace(batch_size=width)
        _, rows = evaluate(model, dataset, wide)
        for ex, row, want in zip(dataset, rows, serial):
            assert row["id"] == ex.id
            assert row["actions"] == "|".join(s.action for s in want.steps)
            # spans, kept sentences, rewards and context sizes, step by step
            assert [{k: v for k, v in step.items() if k != "probs"}
                    for step in row["steps"]] == \
                [{k: v for k, v in s.log_line().items() if k != "probs"}
                 for s in want.steps]
            assert (row["em"], row["f1"]) == (want.em, want.f1)
        for got, want in zip(run_lockstep(model, dataset, wide, "eval"), serial):
            assert [s.action for s in got.steps] == [s.action for s in want.steps]
            # the probabilities each action was taken from
            np.testing.assert_allclose(
                np.stack([s.probs for s in got.steps]),
                np.stack([s.probs for s in want.steps]),
                rtol=1e-5, atol=1e-6, err_msg=f"probs at width {width}")


def test_lockstep_training_samples_as_one_episode_at_a_time():
    # each train-mode episode samples from its own rng, so playing a batch
    # in lockstep changes neither the actions it samples nor the
    # probabilities it samples them from
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel
    from cfqa.tensor import Tape

    vocab = toy_vocab()
    rng = np.random.default_rng(24)
    dataset = []
    for i in range(8):
        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(1, 6)),
                          tokens_per_sentence=int(rng.integers(2, 7)),
                          q_len=int(rng.integers(1, 5)))
        ex.id = f"b{i}"
        dataset.append(ex)
    cfg = tiny_config(seed=24)
    model = QaModel(cfg, vocab, seed=24)

    def play(width):
        with Tape():
            return run_lockstep(model, dataset, cfg.replace(batch_size=width), "train",
                                [episode_rng(cfg.seed, ex.id) for ex in dataset])

    alone = play(1)
    assert {s.action for r in alone for s in r.steps} == {"answer", "select", "excise"}
    assert len({len(r.steps) for r in alone}) >= 2
    for got, want in zip(play(len(dataset)), alone):
        assert [s.action for s in got.steps] == [s.action for s in want.steps]
        np.testing.assert_allclose(
            np.stack([s.probs for s in got.steps]),
            np.stack([s.probs for s in want.steps]), rtol=1e-5, atol=1e-6)


def test_acting_never_runs_the_critic():
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel

    vocab = toy_vocab()
    rng = np.random.default_rng(23)
    dataset = []
    for i in range(6):
        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(1, 5)))
        ex.id = f"c{i}"
        dataset.append(ex)
    cfg = tiny_config(seed=23, batch_size=3)
    model = QaModel(cfg, vocab, seed=23)
    calls = []
    real_value = model.value
    model.value = lambda *args, **kw: calls.append(1) or real_value(*args, **kw)
    _, rows = evaluate(model, dataset, cfg)
    results = [run_episode(model, ex, cfg, "eval") for ex in dataset]
    assert sum(row["n_steps"] for row in rows) > len(dataset)
    assert [len(r.steps) for r in results] == [row["n_steps"] for row in rows]
    assert calls == []


def test_greedy_eval_calls_answer_at_most_once_per_step():
    # a span cap above every context length runs the excision pre-check on
    # every unforced step, so an answer at such a step reuses its output
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel

    vocab = toy_vocab()
    rng = np.random.default_rng(22)
    dataset = []
    for i in range(12):
        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(1, 6)),
                          tokens_per_sentence=int(rng.integers(2, 7)),
                          q_len=int(rng.integers(1, 5)))
        ex.id = f"a{i}"
        dataset.append(ex)
    cfg = tiny_config(seed=22, max_span_len=40)
    model = QaModel(cfg, vocab, seed=22)
    want_metrics, want_rows = evaluate(model, dataset, cfg)
    calls = []
    real_answer = model.answer
    model.answer = lambda q_enc, ctx_enc: calls.append(1) or real_answer(q_enc, ctx_enc)
    for ex in dataset:
        calls.clear()
        result = run_episode(model, ex, cfg, "eval")
        assert len(calls) <= len(result.steps), ex.id
    calls.clear()
    metrics, rows = evaluate(model, dataset, cfg)
    assert (metrics, rows) == (want_metrics, want_rows)
    assert len(calls) <= sum(row["n_steps"] for row in rows)
    # some unforced answer came after a pre-check: one call where there were two
    assert any(step["action"] == "answer" and step["ctx_tokens"] > 1
               for row in rows for step in row["steps"][:cfg.step_cap])


def test_a_train_answer_reuses_the_pre_check_on_its_tape():
    # a span cap above the context length runs the pre-check; under the
    # tape it is recorded, so the answer is its output and the span loss
    # reaches the encoder and the span extractor through it
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel
    from cfqa.tensor import Tape, Tensor

    vocab = toy_vocab()
    cfg = tiny_config(seed=5, max_span_len=40, entropy_coef=0.0)
    model = QaModel(cfg, vocab, seed=5)
    ex = tiny_example(np.random.default_rng(5), vocab, n_sentences=1,
                      tokens_per_sentence=5)
    always_answer = np.array([[1.0, 0.0, 0.0]])
    model.policy = lambda state, action_mask, lengths: (
        Tensor(always_answer), Tensor(np.log(always_answer + 1e-12)))
    calls = []
    real_answer = model.answer
    model.answer = lambda q_enc, ctx_enc: calls.append(1) or real_answer(q_enc, ctx_enc)
    with Tape() as tape:
        result = run_episode(model, ex, cfg, "train", rng=np.random.default_rng(0))
        # a one-sentence document's gold sentence has probability 1
        sel_nll, span_loss = result.aux_losses
        assert sel_nll.item() == 0.0
        tape.backward(span_loss)
    assert [s.action for s in result.steps] == ["answer"]
    assert len(calls) == 1
    learned = [name for name, _ in model.store.items()
               if name.split(".")[0] in ("enc", "ans", "m2")]
    assert len(learned) > 20
    for name in learned:
        grad = model.store[name].grad
        assert grad is not None and np.abs(grad).sum() > 0, name


def test_an_excise_on_a_long_training_context_records_only_the_state_rows():
    # the state of a context over max_state_tokens reads its head and tail
    # rows on the tape; the EXCISE reads the rest for a span nothing learns
    # from, with no tape, and the context is dropped when the step ends
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel
    from cfqa.tensor import Tape, Tensor

    vocab = toy_vocab()
    cfg = tiny_config(seed=4)
    model = QaModel(cfg, vocab, seed=4)
    ex = tiny_example(np.random.default_rng(4), vocab, n_sentences=6,
                      tokens_per_sentence=5)
    n = ex.doc.n_tokens
    assert n > max(cfg.max_state_tokens, cfg.max_span_len)
    picks = iter([ActionId.EXCISE, ActionId.ANSWER])

    def scripted(state, action_mask, lengths):
        probs = np.eye(3)[[int(next(picks))]]
        return Tensor(probs), Tensor(np.log(probs + 1e-12))

    model.policy = scripted
    with Tape() as tape:
        result = run_episode(model, ex, cfg, "train", np.random.default_rng(0))
        # query rows of each attention op over the first context's keys
        recorded = [node.out.data.shape[0] for node in tape.nodes
                    if node.vjp.__qualname__.startswith("attention_heads.")
                    and node.parents[1].data.shape[0] == n]
    assert [s.action for s in result.steps] == ["excise", "answer"]
    assert result.steps[1].ctx_tokens < n
    assert recorded == [cfg.max_state_tokens]


def test_an_episode_embeds_its_document_once(monkeypatch):
    # a narrowed context gathers its projected rows from the first step's
    # encoding, so the word table is looked up once for the question and
    # once for the document, whether the context was narrowed by SELECT or
    # cut by EXCISE
    from cfqa import tensor as T
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel
    from cfqa.tensor import Tensor

    vocab = toy_vocab()
    cfg = tiny_config(seed=3, k_initial=2)
    model = QaModel(cfg, vocab, seed=3)
    ex = tiny_example(np.random.default_rng(3), vocab, n_sentences=4)
    word_lookups = []
    embedding = T.embedding

    def counting_embedding(table, ids):
        if table is model.store["emb.word"]:
            word_lookups.append(len(ids))
        return embedding(table, ids)

    monkeypatch.setattr(T, "embedding", counting_embedding)
    for first in (ActionId.SELECT, ActionId.EXCISE):
        picks = iter([first, ActionId.ANSWER])

        def scripted(state, action_mask, lengths):
            probs = np.eye(3)[[int(next(picks))]]
            return Tensor(probs), Tensor(np.log(probs + 1e-12))

        model.policy = scripted
        word_lookups.clear()
        result = run_episode(model, ex, cfg, "eval")
        assert [s.action for s in result.steps] == [first.name.lower(), "answer"]
        assert result.steps[1].ctx_tokens < ex.doc.n_tokens
        assert word_lookups == [len(ex.question), ex.doc.n_tokens]


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_a_long_context_computes_each_encoder_row_once(monkeypatch, mode):
    # the state reads the head and tail rows of a context over
    # max_state_tokens, then the answer reads the whole matrix: the block
    # computes the rows in between, not every row again
    import contextlib

    from cfqa import encoder
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel
    from cfqa.tensor import Tape, Tensor

    vocab = toy_vocab()
    cfg = tiny_config(seed=4)
    model = QaModel(cfg, vocab, seed=4)
    ex = tiny_example(np.random.default_rng(4), vocab, n_sentences=6,
                      tokens_per_sentence=5)
    assert ex.doc.n_tokens > cfg.max_state_tokens

    def answers(state, action_mask, lengths):
        probs = np.eye(3)[[int(ActionId.ANSWER)]]
        return Tensor(probs), Tensor(np.log(probs + 1e-12))

    model.policy = answers
    query_rows = []
    self_attention = encoder.self_attention

    def counting_attention(x, n_heads, store, prefix, rows=None, **kw):
        if prefix == "enc":
            query_rows.append(x.data.shape[0] if rows is None else len(rows))
        return self_attention(x, n_heads, store, prefix, rows=rows, **kw)

    monkeypatch.setattr(encoder, "self_attention", counting_attention)
    with Tape() if mode == "train" else contextlib.nullcontext():
        result = run_episode(model, ex, cfg, mode, np.random.default_rng(0))
    assert [s.action for s in result.steps] == ["answer"]
    n, q = ex.doc.n_tokens, len(ex.question)
    assert query_rows == [q, cfg.max_state_tokens, n - cfg.max_state_tokens]


def test_narrowed_steps_act_as_on_a_fresh_encoding_of_their_context():
    # replay every step on its context encoded afresh and scored afresh: the
    # policy sees the same probabilities, a SELECT keeps the same sentences
    # and a span is the same span, so gathering the document's rows and
    # keeping its sentence scores change only the work done
    from cfqa.checks import tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel
    from cfqa.selector import select_top_k
    from cfqa.subcontext import excise_span

    vocab = toy_vocab()
    rng = np.random.default_rng(31)
    cfg = tiny_config(seed=31, k_initial=4)
    model = QaModel(cfg, vocab, seed=31)
    paths = []
    for i in range(16):
        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(2, 7)),
                          tokens_per_sentence=int(rng.integers(2, 6)),
                          q_len=int(rng.integers(1, 4)))
        ex.id = f"r{i}"
        for mode in ("eval", "train"):
            result = run_episode(model, ex, cfg, mode, episode_rng(cfg.seed, ex.id))
            q_enc = model.encode_question(ex)
            ctx, k = ex.doc, cfg.k_initial
            for step in result.steps:
                assert step.ctx_tokens == ctx.n_tokens
                ctx_enc = model.encode_doc(ctx)
                state = model.state(ctx_enc, q_enc)
                probs = model.policy(state, step.mask[None], [state.data.shape[0]])[0].data[0]
                np.testing.assert_allclose(step.probs, probs, rtol=1e-5, atol=1e-6)
                if mode == "eval":
                    assert ActionId[step.action.upper()] == int(np.argmax(probs))
                if step.action == "select":
                    ctx, kept = select_top_k(model.sentence_dist(q_enc, ctx, ctx_enc),
                                             ctx, k)
                    assert kept == step.kept
                    k = max(1, k - 1)
                    continue
                span = model.answer(q_enc, ctx_enc).span
                assert (span.start, span.end) == step.span
                if step.action == "excise":
                    ctx = excise_span(ctx, *step.span)
            paths.append("|".join(s.action for s in result.steps))
    # a SELECT after a SELECT reads kept scores; one after an EXCISE, fresh ones
    assert any("select|select" in p for p in paths)
    assert any("excise|select" in p for p in paths)


def test_a_gather_of_other_tokens_breaks_the_invariants(monkeypatch):
    from cfqa import episode

    ex = make_example(np.random.default_rng(32), n_sentences=6)
    cfg = engine_cfg()
    model = ScriptedModel(seed=32, policy_fn=pinned_policy(ActionId.SELECT),
                          max_span_len=cfg.max_span_len)
    select_top_k = episode.select_top_k

    def reverses_positions(dist, ctx, k):
        narrowed, kept = select_top_k(dist, ctx, k)
        narrowed.positions = narrowed.positions[::-1]
        return narrowed, kept

    monkeypatch.setattr(episode, "select_top_k", reverses_positions)
    with pytest.raises(ContractError, match="gathered"):
        run_episode(model, ex, cfg, "eval")


def test_positions_count_from_the_episodes_own_document():
    # a document narrowed elsewhere carries positions in a larger one; an
    # episode on it gathers by its own token offsets
    ex = make_example(np.random.default_rng(34), n_sentences=6)
    cfg = engine_cfg()
    model = ScriptedModel(seed=34, policy_fn=pinned_policy(ActionId.SELECT),
                          max_span_len=cfg.max_span_len)
    ex.doc.positions = [p + 1000 for p in ex.doc.positions]
    result = run_episode(model, ex, cfg, "eval")
    assert [s.action for s in result.steps] == ["select"] * 5 + ["answer"]


def test_a_state_with_one_legal_action_is_not_read():
    # the step cap forces the last answer, so that state's probabilities are
    # the one-hot the masked softmax would give, and no actor reads it
    rng = np.random.default_rng(33)
    dataset = [make_example(rng, n_sentences=8, example_id=f"s{i}") for i in range(5)]
    cfg = engine_cfg(batch_size=2)
    model = ScriptedModel(seed=33, policy_fn=pinned_policy(ActionId.SELECT),
                          max_span_len=cfg.max_span_len)
    reads = []
    real_policy = model.policy

    def counting_policy(state, action_mask, lengths):
        reads.append(len(lengths))
        return real_policy(state, action_mask, lengths)

    model.policy = counting_policy
    results = [run_episode(model, ex, cfg, "eval") for ex in dataset]
    lockstep = run_lockstep(model, dataset, cfg, "eval")
    for result in results + lockstep:
        assert [s.action for s in result.steps] == ["select"] * 5 + ["answer"]
        assert result.forced
        assert result.steps[-1].probs.tolist() == [1.0, 0.0, 0.0]
    assert sum(reads) == 2 * 5 * len(dataset)
