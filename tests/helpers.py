"""Scripted stand-ins for the neural model, for engine-level tests.

The episode engine only needs a handful of duck-typed surfaces; these stubs
answer them with plain numpy so thousands of episodes run in milliseconds
and policies/spans can be pinned or randomized at will.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cfqa.answer import AnswerOutput, SpanPrediction
from cfqa.selector import SentenceDist
from cfqa.tensor import Tensor


def masked_probs(base: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    p = np.asarray(base, dtype=np.float64).copy()
    if mask is not None:
        p[~np.asarray(mask, dtype=bool)] = 0.0
    total = p.sum()
    if total <= 0:
        allowed = np.ones(3) if mask is None else np.asarray(mask, dtype=np.float64)
        return allowed / allowed.sum()
    return p / total


@dataclass
class _Tagged:
    """An encoding that names what it encodes: an episode or a context.

    The engine reads only a question's ``matrix``, to check that it stays
    the same through an episode; the stub's surfaces read the tag."""
    matrix: Tensor
    tag: object


class ScriptedModel:
    """Engine-compatible stub with pluggable policy, span and sentence scorer.

    policy_fn(ctx, step) -> base probabilities over (answer, select, excise);
    span_fn(ctx, rng) -> (start, end); dist_fn(ctx, rng) -> sentence probs.
    Without a span_fn, spans are random and at most ``max_span_len`` tokens
    long, as ``QaModel`` decodes them, so such a stub must be given the
    episode config's cap.

    Lockstep evaluation interleaves episodes, so nothing about the current
    episode lives on the stub: a question encoding is tagged with its
    episode, a context encoding with its context, and each state's rows hold
    a key to the (context, step) it was built for. ``policy`` reads states
    packed back to back with ``lengths``, like ``QaModel``; acting never
    reads the critic, so the stub has no ``value``.
    """

    def __init__(self, seed: int = 0, d_model: int = 4, policy_fn=None,
                 span_fn=None, dist_fn=None, max_span_len: int | None = None):
        if span_fn is None and max_span_len is None:
            raise TypeError("a random-span ScriptedModel needs max_span_len")
        self.rng = np.random.default_rng(seed)
        self.d_model = d_model
        self.max_span_len = max_span_len
        self.policy_fn = policy_fn or (lambda ctx, step: self.rng.dirichlet(np.ones(3)))
        self.span_fn = span_fn or self._random_span
        self.dist_fn = dist_fn or (lambda ctx, rng: rng.dirichlet(np.ones(ctx.n_sentences)))
        self._episodes = 0
        self._steps_taken: dict[int, int] = {}
        self._states: list[tuple] = []     # state key -> (context, step)

    def _random_span(self, ctx, rng):
        n = ctx.n_tokens
        start = int(rng.integers(0, n))
        end = int(rng.integers(start, min(n, start + self.max_span_len)))
        return start, end

    def encode_question(self, example):
        rows = np.full((max(1, len(example.question)), self.d_model), 0.25)
        self._episodes += 1
        return _Tagged(Tensor(rows), tag=self._episodes)

    def encode_doc(self, ctx, source=None):
        rows = np.zeros((ctx.n_tokens, self.d_model))
        return _Tagged(Tensor(rows), tag=ctx)

    def state(self, ctx_enc, q_enc):
        step = self._steps_taken.get(q_enc.tag, 0)
        self._steps_taken[q_enc.tag] = step + 1
        self._states.append((ctx_enc.tag, step))
        # states of different lengths, so packing has something to get wrong
        rows = 2 + len(self._states) % 3
        return Tensor(np.full((rows, self.d_model), float(len(self._states) - 1)))

    def policy(self, state, action_mask, lengths):
        starts = np.cumsum([0, *lengths[:-1]])
        pairs = [self._states[int(state.data[start, 0])] for start in starts]
        probs = np.stack([masked_probs(self.policy_fn(ctx, step), mask)
                          for (ctx, step), mask in zip(pairs, action_mask)])
        return Tensor(probs), Tensor(np.log(np.maximum(probs, 1e-12)))

    def sentence_dist(self, q_enc, ctx, ctx_enc):
        probs = np.asarray(self.dist_fn(ctx, self.rng), dtype=np.float64)
        return SentenceDist(probs=probs, logits=Tensor(np.log(probs + 1e-12)))

    def answer(self, q_enc, ctx_enc):
        ctx = ctx_enc.tag
        start, end = self.span_fn(ctx, self.rng)
        n = ctx.n_tokens
        p = np.zeros(n)
        p[start] = 1.0
        pe = np.zeros(n)
        pe[end] = 1.0
        span = SpanPrediction(start=start, end=end, p_start=p, p_end=pe, score=1.0)
        return AnswerOutput(start_logits=Tensor(p), end_logits=Tensor(pe), span=span)


def pinned_policy(action_index: int):
    base = np.full(3, 1e-9)
    base[action_index] = 1.0
    return lambda ctx, step: base


def oracle_components(gold_answers):
    """Selector and span functions that read the gold answer's location."""
    from cfqa.text import find_subsequence

    def dist_fn(ctx, rng):
        probs = np.full(ctx.n_sentences, 1e-9)
        for i, sent in enumerate(ctx.sentences):
            if any(find_subsequence(sent, g) is not None for g in gold_answers):
                probs[i] = 1.0
        return probs / probs.sum()

    def span_fn(ctx, rng):
        flat = ctx.flat_tokens()
        for g in gold_answers:
            start = find_subsequence(flat, g)
            if start is not None:
                return start, start + len(g) - 1
        return 0, 0

    return dist_fn, span_fn


def make_example(rng, n_sentences=5, tokens_per_sentence=4, gold_sentence=None,
                 example_id="ex-0"):
    from cfqa.text import QAExample, TokenDoc

    sentences = [[int(t) for t in rng.integers(10, 200, size=tokens_per_sentence)]
                 for _ in range(n_sentences)]
    if gold_sentence is None:
        gold_sentence = int(rng.integers(0, n_sentences))
    gold = sentences[gold_sentence][1:3]
    doc = TokenDoc(sentences, [[[1, 2]] * len(s) for s in sentences])
    question = [int(t) for t in rng.integers(10, 200, size=3)]
    return QAExample(example_id, doc, question, [[1, 2]] * 3, [list(gold)])
