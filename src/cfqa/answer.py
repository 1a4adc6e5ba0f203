"""Span extraction: similarity attention, shared model-encoder, span heads.

The context attends to the question through a trilinear similarity matrix;
row- and column-normalized variants of that matrix produce the two
attention summaries that are fused with the context and pushed through one
weight-shared encoder block three times. Start and end heads read pairs of
those passes. It reads plain encoder outputs, never padded: the question
``q`` [m x d_model] and the context ``d`` [n x d_model].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import EncoderConfig, encoder_block, _create_block
from .params import ParamStore
from .tensor import Tensor


@dataclass
class AttentionPair:
    a: Tensor        # context-to-question summary [n x d_model]
    b: Tensor        # question-to-context summary [n x d_model]


@dataclass
class SpanPrediction:
    start: int
    end: int
    p_start: np.ndarray
    p_end: np.ndarray
    score: float


@dataclass
class AnswerOutput:
    """Forward results of the span extractor on one context."""
    start_logits: Tensor
    end_logits: Tensor
    span: SpanPrediction


def create_answer_params(store: ParamStore, cfg: EncoderConfig,
                         rng: np.random.Generator) -> None:
    d = cfg.d_model
    store.create("ans.w_sim", (3 * d,), rng, fan_in=3 * d)
    store.create("ans.fuse_w", (4 * d, d), rng, fan_in=4 * d)
    store.create("ans.fuse_b", (d,), rng, fan_in=0)
    _create_block(store, "m2", cfg, rng)
    store.create("ans.w_start", (2 * d,), rng, fan_in=2 * d)
    store.create("ans.w_end", (2 * d,), rng, fan_in=2 * d)


def trilinear_similarity(q: Tensor, d: Tensor, w_sim: Tensor) -> Tensor:
    """S[i,j] = w . [q_j, d_i, q_j * d_i] for context row i, question row j."""
    (n, dm), m = d.data.shape, q.data.shape[0]
    w_q = T.narrow(w_sim, 0, 0, dm)
    w_d = T.narrow(w_sim, 0, dm, 2 * dm)
    w_m = T.narrow(w_sim, 0, 2 * dm, 3 * dm)
    col = T.reshape(T.matmul(d, w_d), (n, 1))
    row = T.reshape(T.matmul(q, w_q), (1, m))
    cross = T.matmul(T.mul(d, w_m), T.transpose(q))
    return T.add(T.add(cross, col), row)


def context_query_attention(s: Tensor, q: Tensor, d: Tensor) -> AttentionPair:
    """Row/column softmax products of the similarity matrix:
    ``a = S_row q`` and ``b = S_row S_col^T d``."""
    s_row = T.softmax(s, axis=1)
    s_col = T.softmax(s, axis=0)
    a = T.matmul(s_row, q)
    b = T.matmul(T.matmul(s_row, T.transpose(s_col)), d)
    return AttentionPair(a=a, b=b)


def model_encode(d: Tensor, pair: AttentionPair, cfg: EncoderConfig,
                 store: ParamStore) -> tuple[Tensor, Tensor, Tensor]:
    """Fuse attention into the context and run the shared block three times."""
    fused = T.concat([d, pair.a, T.mul(d, pair.a), T.mul(d, pair.b)], axis=1)
    x = T.add(T.matmul(fused, store["ans.fuse_w"]), store["ans.fuse_b"])
    e0 = encoder_block(x, cfg, store, "m2")
    e1 = encoder_block(e0, cfg, store, "m2")
    e2 = encoder_block(e1, cfg, store, "m2")
    return e0, e1, e2


def decode_span(p_start: np.ndarray, p_end: np.ndarray,
                max_span_len: int) -> tuple[int, int]:
    """Pick (start, end) from the two position distributions: the argmax of
    p_start[i]*p_end[j] over i <= j < i+max_span_len, as QANet decodes. A
    span is never inverted and never longer than ``max_span_len`` tokens."""
    n = len(p_start)
    best = (-1.0, 0, 0)
    for j in range(n):
        lo = max(0, j - max_span_len + 1)
        i = lo + int(np.argmax(p_start[lo:j + 1]))
        cand = float(p_start[i]) * float(p_end[j])
        if cand > best[0]:
            best = (cand, i, j)
    return best[1], best[2]


def predict_span(start_logits: Tensor, end_logits: Tensor,
                 max_span_len: int) -> SpanPrediction:
    p_start = _probs(start_logits.data)
    p_end = _probs(end_logits.data)
    s, e = decode_span(p_start, p_end, max_span_len)
    return SpanPrediction(start=s, end=e, p_start=p_start, p_end=p_end,
                          score=float(p_start[s] * p_end[e]))


def _probs(logits: np.ndarray) -> np.ndarray:
    ez = np.exp(logits - logits.max())
    return ez / ez.sum()


def answer_forward(q: Tensor, d: Tensor, cfg: EncoderConfig, store: ParamStore,
                   max_span_len: int) -> AnswerOutput:
    """Full extractor forward on one (question, context) pair."""
    sim = trilinear_similarity(q, d, store["ans.w_sim"])
    pair = context_query_attention(sim, q, d)
    e0, e1, e2 = model_encode(d, pair, cfg, store)
    start_logits = T.matmul(T.concat([e0, e1], axis=1), store["ans.w_start"])
    end_logits = T.matmul(T.concat([e0, e2], axis=1), store["ans.w_end"])
    span = predict_span(start_logits, end_logits, max_span_len)
    return AnswerOutput(start_logits=start_logits, end_logits=end_logits, span=span)


def span_nll(out: AnswerOutput, gold_start: int, gold_end: int) -> Tensor:
    """Negative log-likelihood of a gold (start, end) pair."""
    ls = T.log_softmax(out.start_logits, axis=0)
    le = T.log_softmax(out.end_logits, axis=0)
    return T.mul(T.add(T.pick(ls, gold_start), T.pick(le, gold_end)), -1.0)
