"""Shared representation stack for documents and questions.

Two layers: an input embedding layer (word embedding concatenated with a
max-pooled character embedding) and an encoder block (projection,
sinusoidal positions, one convolution, multi-head self-attention, a
position-wise feed-forward), all through one parameter set regardless of
whether the input is a document or the question. Only this module embeds
tokens: the selector reads the projected rows an ``Encoded`` keeps. Nothing
is padded or masked: each sequence gets its own block pass.

A token's projected row (embedding, then projection) does not depend on the
tokens around it. ``encode_tokens`` embeds and projects a sequence, and
``Encoded.gather`` builds the encoding of a sequence made of some of those
tokens from their projected rows, so a narrowed context is never embedded
again. Either way, the positions, the convolution and the attention
key/value projections then run over every row of the sequence, since every
query reads them. The rest of the block, from the queries to the
feed-forward, runs per output row, and only when a row is first read: the
controller state of a long context reads its head and tail rows, the span
extractor reads them all, and the selector reads none. A row's block pass
is recorded on the tape active when the row is first read, so a tape holds
only the rows read under it.

The attention heads are fused: after the query, key and value projections,
one ``tensor.attention_heads`` op computes every head's scores, softmax and
weighted sum over [heads x rows x d_head] views of the projections, and
the head outputs land side by side in one [rows x d_model] array for the
output projection. No head is narrowed out or concatenated back, and the
op is a single tape node that keeps only the projections: its backward
recomputes the heads' probabilities. Its per-head composition of tape ops
is the oracle in ``cfqa.checks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .nn import feed_forward, linear
from .params import ParamStore
from .tensor import Tensor


@dataclass
class EncoderConfig:
    d1: int          # word embedding width
    d2: int          # char embedding width
    d_model: int     # also the convolution's filter count, as in QANet
    k_s: int
    n_heads: int

    def validate(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.k_s % 2 == 0:
            raise ConfigError(f"conv kernel size must be odd, got {self.k_s}")


def create_encoder_params(store: ParamStore, cfg: EncoderConfig,
                          n_words: int, n_chars: int,
                          rng: np.random.Generator,
                          word_init: Optional[np.ndarray] = None) -> None:
    cfg.validate()
    if word_init is not None:
        store.create("emb.word", (n_words, cfg.d1), rng, init=lambda s: word_init)
    else:
        store.create("emb.word", (n_words, cfg.d1), rng, fan_in=cfg.d1)
    store.create("emb.char", (n_chars, cfg.d2), rng, fan_in=cfg.d2)
    _create_block(store, "enc", cfg, rng, proj_in=cfg.d1 + cfg.d2)


def _create_block(store: ParamStore, prefix: str, cfg: EncoderConfig,
                  rng: np.random.Generator, proj_in: Optional[int] = None) -> None:
    """One conv/attention/feed-forward block, optionally with an input projection."""
    d = cfg.d_model
    if proj_in is not None:
        store.create(f"{prefix}.proj_w", (proj_in, d), rng, fan_in=proj_in)
        store.create(f"{prefix}.proj_b", (d,), rng, fan_in=0)
    store.create(f"{prefix}.conv_w", (cfg.k_s, d, d), rng, fan_in=cfg.k_s * d)
    store.create(f"{prefix}.conv_b", (d,), rng, fan_in=0)
    for name in ("attn_q", "attn_k", "attn_v", "attn_o"):
        store.create(f"{prefix}.{name}", (d, d), rng, fan_in=d)
    store.create(f"{prefix}.ff_w1", (d, d), rng, fan_in=d)
    store.create(f"{prefix}.ff_b1", (d,), rng, fan_in=0)
    store.create(f"{prefix}.ff_w2", (d, d), rng, fan_in=d)
    store.create(f"{prefix}.ff_b2", (d,), rng, fan_in=0)


def embed_tokens(tokens, char_ids, store: ParamStore) -> Tensor:
    """Per-token vectors: word embedding concat char-embedding row max.

    ``char_ids`` is [n x w_c] with PAD entries excluded from the max. The
    max runs once per distinct char row (a long document repeats a small
    vocabulary), and each token gathers its row's result back, so the
    forward values are those of a per-token max.
    """
    word_vecs = T.embedding(store["emb.word"], np.asarray(tokens, dtype=np.int64))
    rows, inverse = np.unique(np.asarray(char_ids, dtype=np.int64), axis=0,
                              return_inverse=True)
    char_vecs = T.embedding(store["emb.char"], rows)       # [u x w_c x d2]
    pad_mask = (rows != 0).astype(char_vecs.data.dtype)    # PAD id is 0
    penalty = Tensor((pad_mask - 1.0)[:, :, None] * 1e9)
    char_max = T.reduce_max(T.add(char_vecs, penalty), axis=1)
    return T.concat([word_vecs, T.embedding(char_max, inverse.reshape(-1))], axis=1)


# one read-only table per (width, dtype), grown to the longest sequence seen
_POSITIONS: dict[tuple[int, np.dtype], np.ndarray] = {}


def sinusoidal_positions(n: int, d: int, dtype) -> np.ndarray:
    """Sinusoidal position rows 0..n-1, a read-only slice of a cached table."""
    key = (d, np.dtype(dtype))
    table = _POSITIONS.get(key)
    if table is None or table.shape[0] < n:
        rows = max(n, 2 * table.shape[0] if table is not None else 0)
        pos = np.arange(rows, dtype=np.float64)[:, None]
        dim = np.arange(d, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, (2 * (dim // 2)) / d)
        table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype)
        table.flags.writeable = False
        _POSITIONS[key] = table
    return table[:n]


def attention_keys(x: Tensor, store: ParamStore, prefix: str) -> tuple[Tensor, Tensor]:
    """The attention keys and values of every row of ``x``."""
    return (T.matmul(x, store[f"{prefix}.attn_k"]),
            T.matmul(x, store[f"{prefix}.attn_v"]))


def self_attention(x: Tensor, n_heads: int, store: ParamStore, prefix: str,
                   rows: Optional[np.ndarray] = None,
                   keys: Optional[tuple[Tensor, Tensor]] = None) -> Tensor:
    """Multi-head scaled dot-product attention over one sequence.

    The queries are the rows ``rows`` of ``x`` (all rows when None), and
    each attends to every row; ``keys`` passes ``attention_keys(x, ...)``
    when the caller has them already. The queries are scaled by
    1/sqrt(d_head) before the product, and every head runs in one
    ``attention_heads`` op.
    """
    d_head = x.data.shape[1] // n_heads
    queries = x if rows is None else T.embedding(x, rows)
    q_all = T.mul(T.matmul(queries, store[f"{prefix}.attn_q"]), 1.0 / np.sqrt(d_head))
    k_all, v_all = attention_keys(x, store, prefix) if keys is None else keys
    return T.matmul(T.attention_heads(q_all, k_all, v_all, n_heads),
                    store[f"{prefix}.attn_o"])


def conv_sublayer(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """The block's convolution, with its residual: every row of the block
    input, which every attention query reads."""
    conv = T.relu(T.add(T.conv1d(x, store[f"{prefix}.conv_w"]),
                        store[f"{prefix}.conv_b"]))
    return T.add(x, conv)


def block_rows(x: Tensor, cfg: EncoderConfig, store: ParamStore, prefix: str,
               rows: Optional[np.ndarray] = None,
               keys: Optional[tuple[Tensor, Tensor]] = None) -> Tensor:
    """Self-attention -> feed-forward, residual around each, for the rows
    ``rows`` (all when None) of the convolution output ``x``."""
    attn = self_attention(x, cfg.n_heads, store, prefix, rows=rows, keys=keys)
    if rows is not None:
        x = T.embedding(x, rows)
    x = T.add(x, attn)
    ff = feed_forward(x, store[f"{prefix}.ff_w1"], store[f"{prefix}.ff_b1"],
                      store[f"{prefix}.ff_w2"], store[f"{prefix}.ff_b2"])
    return T.add(x, ff)


def encoder_block(x: Tensor, cfg: EncoderConfig, store: ParamStore,
                  prefix: str) -> Tensor:
    """conv -> self-attention -> feed-forward, residual around each sublayer."""
    return block_rows(conv_sublayer(x, store, prefix), cfg, store, prefix)


def add_positions(x: Tensor, cfg: EncoderConfig,
                  positions: Optional[np.ndarray] = None) -> Tensor:
    """Add sinusoidal positions: row i gets ``positions[i]``, by default i;
    the selector passes each token's place in its sentence."""
    if positions is None:
        pos = sinusoidal_positions(x.data.shape[0], cfg.d_model, x.data.dtype)
    else:
        pos = sinusoidal_positions(int(positions.max(initial=-1)) + 1,
                                   cfg.d_model, x.data.dtype)[positions]
    return T.add(x, Tensor(pos))


class Encoded:
    """One sequence's encoder output, computed a row at a time as it is read.

    ``projected`` holds the token rows after the input projection, before
    positions are added; the selector reads those. Making an encoding from
    them adds the positions and runs the block's convolution and its
    attention keys and values over every row. The block output rows are
    computed on first read, each row once: ``rows(index)`` computes the rows
    of ``index`` not computed before, and ``matrix`` the rest. A read is
    recorded on whatever tape is active when it runs, like any op, so a row
    first read under ``suspend_tape`` has no gradient path; an episode reads
    that way only a context it drops when the step ends.
    """

    def __init__(self, projected: Tensor, cfg: EncoderConfig, store: ParamStore):
        self.projected = projected
        self._cfg, self._store = cfg, store
        self._x = conv_sublayer(add_positions(projected, cfg), store, "enc")
        self._keys = attention_keys(self._x, store, "enc")
        self._have = np.zeros(self._x.data.shape[0], dtype=bool)   # rows computed
        self._done: Optional[Tensor] = None   # the output of those rows, in row order

    @property
    def n_rows(self) -> int:
        return self._have.size

    def gather(self, index) -> "Encoded":
        """The encoding of the sequence made of this one's tokens ``index``,
        in its order, built from their projected rows. Under a tape the
        gather carries the gradient back to the rows it read."""
        return Encoded(T.embedding(self.projected, index), self._cfg, self._store)

    def rows(self, index) -> Tensor:
        """Output rows ``index``, in its order, as [len(index) x d_model]."""
        index = np.asarray(index, dtype=np.int64)
        need = np.zeros_like(self._have)
        need[index] = True
        self._compute(np.flatnonzero(need & ~self._have))
        if np.array_equal(index, np.flatnonzero(self._have)):
            return self._done
        return T.embedding(self._done, np.cumsum(self._have)[index] - 1)

    @property
    def matrix(self) -> Tensor:
        """Every output row, [n x d_model]."""
        self._compute(np.flatnonzero(~self._have))
        return self._done

    def _compute(self, missing: np.ndarray) -> None:
        """Run the block for the rows ``missing`` (ascending, none computed
        yet) and merge them into ``_done`` in row order."""
        if not missing.size:
            return
        every = missing.size == self.n_rows
        new = block_rows(self._x, self._cfg, self._store, "enc",
                         rows=None if every else missing, keys=self._keys)
        if self._done is not None:
            merged = np.concatenate([np.flatnonzero(self._have), missing])
            new = T.embedding(T.concat([self._done, new]), np.argsort(merged))
        self._done = new
        self._have[missing] = True
        if self._have.all():
            # no row is left to compute, so the block inputs are not read again
            self._x = self._keys = None


def encode_tokens(tokens, char_ids, cfg: EncoderConfig, store: ParamStore) -> Encoded:
    """Full encoder: embed, project to d_model, add positions, convolve; the
    rest of the block runs as the output rows are read."""
    projected = linear(embed_tokens(tokens, char_ids, store),
                       store["enc.proj_w"], store["enc.proj_b"])
    return Encoded(projected, cfg, store)
