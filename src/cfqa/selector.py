"""Sentence scoring and top-K narrowing.

Each sentence is scored by a small text CNN over the encoded question rows
concatenated with the sentence's projected token embeddings (positions
counted within the sentence); a softmax over the per-sentence scores gives
the selection distribution. The projected rows are the encoder's, so the
selector embeds nothing itself, and one convolution runs over every
(question, sentence) sequence packed back to back. A sentence's score
depends only on the question and that sentence's rows, so the scores of a
context narrowed to some sentences are those sentences' entries of the
scores of the context it came from (``kept_dist``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import EncoderConfig, add_positions
from .errors import ContractError
from .params import ParamStore
from .tensor import Tensor
from .text import TokenDoc


@dataclass
class SentenceDist:
    """Probabilities aligned to the sentence order of the scored context."""
    probs: np.ndarray
    logits: Tensor


def create_selector_params(store: ParamStore, cfg: EncoderConfig,
                           kernel: int, n_filters: int,
                           rng: np.random.Generator) -> None:
    store.create("sel.conv_w", (kernel, cfg.d_model, n_filters), rng,
                 fan_in=kernel * cfg.d_model)
    store.create("sel.conv_b", (n_filters,), rng, fan_in=0)
    store.create("sel.score_w", (n_filters,), rng, fan_in=n_filters)


def pack_segments(m: int, lengths: np.ndarray, gap: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Row ids for packing one (question, sentence) sequence per sentence.

    The rows come from ``concat([q, ctx, zero_row])``: ids 0..m-1 are the
    question, m + t is context token t, and m + N the zero row. Segment i is
    the question, sentence i (``lengths[i]`` tokens), then ``gap`` zero rows;
    with ``gap`` = k // 2 a same-padded width-k convolution over the pack
    sees each segment exactly as it would alone. Returns the pack's row ids
    and, per segment, the pack positions of its m + L_i real rows, padded to
    m + max(L) with the segment's first row.
    """
    n = int(lengths.sum())
    seg_len = m + lengths + gap
    seg_start = np.cumsum(seg_len) - seg_len
    seg_of = np.repeat(np.arange(lengths.size), seg_len)
    at = np.arange(int(seg_len.sum())) - seg_start[seg_of]
    sent_start = (np.cumsum(lengths) - lengths)[seg_of]
    pack_ids = np.where(at < m, at,
                        np.where(at < m + lengths[seg_of], sent_start + at, m + n))
    j = np.arange(m + int(lengths.max()))[None, :]
    seg_rows = seg_start[:, None] + np.where(j < (m + lengths)[:, None], j, 0)
    return pack_ids, seg_rows


def score_sentences(q: Tensor, ctx: TokenDoc, projected: Tensor,
                    cfg: EncoderConfig, store: ParamStore) -> SentenceDist:
    """Distribution over the sentences of ``ctx`` given the encoded question
    ``q``, from ``projected``, the ``Encoded.projected`` rows of ``ctx``.

    Sentence i scores ``max_rows(relu(conv([q; sentence i]) + b)) . w``, where
    the sentence rows are its projected rows with positions 0..L_i-1. One
    pass scores them all: add the positions, gather the sequences into one
    pack (``pack_segments``), run one convolution over it, and max-pool each
    segment's rows. A segment's padding repeats its first row, so the max
    and its first-argmax gradient are those of the segment alone.
    """
    if ctx.n_sentences < 1:
        raise ContractError("cannot score an empty context")
    lengths = np.array([len(s) for s in ctx.sentences], dtype=np.int64)
    local = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths,
                                                      lengths)
    if projected.data.shape[0] != local.size:
        raise ContractError(f"{projected.data.shape[0]} projected rows for a "
                            f"context of {local.size} tokens")
    sent = add_positions(projected, cfg, positions=local)
    m = q.data.shape[0]
    conv_w = store["sel.conv_w"]
    pack_ids, seg_rows = pack_segments(m, lengths, conv_w.data.shape[0] // 2)
    zero_row = Tensor(np.zeros((1, sent.data.shape[1]), dtype=sent.data.dtype))
    pack = T.embedding(T.concat([q, sent, zero_row], axis=0), pack_ids)
    conv = T.relu(T.add(T.conv1d(pack, conv_w), store["sel.conv_b"]))
    pooled = T.reduce_max(T.embedding(conv, seg_rows), axis=1)   # [S x filters]
    logits = T.matmul(pooled, store["sel.score_w"])
    probs = T.softmax(logits, axis=0)
    return SentenceDist(probs=probs.data.copy(), logits=logits)


def kept_dist(dist: SentenceDist, kept: list[int]) -> SentenceDist:
    """The distribution over the sentences ``kept`` of the context ``dist``
    scored, in that order: their logits, and a softmax over them."""
    logits = T.pick(dist.logits, (np.asarray(kept, dtype=np.int64),))
    return SentenceDist(probs=T.softmax(logits, axis=0).data.copy(), logits=logits)


def top_k_indices(probs: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest probabilities; ties favor the lower index."""
    order = np.argsort(-probs, kind="stable")
    return sorted(int(i) for i in order[: max(1, min(k, len(probs)))])


def select_top_k(dist: SentenceDist, ctx: TokenDoc, k: int) -> tuple[TokenDoc, list[int]]:
    """Keep the top-k sentences in original document order.

    k is clamped to the sentence count; the kept tokens keep their
    ``positions``. Returns the narrowed document and the kept sentence
    indices.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if len(dist.probs) != ctx.n_sentences:
        raise ContractError(
            f"distribution over {len(dist.probs)} sentences does not match "
            f"context with {ctx.n_sentences}")
    keep = top_k_indices(dist.probs, k)
    bounds = ctx.sentence_bounds()
    index = [i for s in keep for i in range(*bounds[s])]
    return ctx.take(index, [len(ctx.sentences[s]) for s in keep]), keep
