import tracemalloc

import numpy as np
import pytest

from cfqa import tensor as T
from cfqa.encoder import (EncoderConfig, create_encoder_params, embed_tokens,
                          encode_tokens, encoder_block, self_attention,
                          sinusoidal_positions)
from cfqa.errors import ConfigError
from cfqa.params import ParamStore
from cfqa.tensor import Tape, Tensor


def small_cfg(**kw):
    base = dict(d1=6, d2=4, d_model=8, k_s=3, n_heads=2)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture
def store():
    cfg = small_cfg()
    s = ParamStore()
    create_encoder_params(s, cfg, n_words=12, n_chars=9,
                          rng=np.random.default_rng(0))
    return s


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(n_heads=3).validate()
    with pytest.raises(ConfigError):
        small_cfg(k_s=4).validate()


# ------------------------------------------------------------ char embeddings

def test_single_char_token_embeds_exactly(store):
    emb = embed_tokens([3], [[2, 0, 0, 0]], store)
    char_part = emb.data[0, 6:]
    assert np.allclose(char_part, store["emb.char"].data[2])


def test_repeated_chars_match_single_char(store):
    single = embed_tokens([3], [[2, 0, 0, 0]], store).data
    repeated = embed_tokens([3], [[2, 2, 2, 2]], store).data
    assert np.allclose(single, repeated)


def test_char_max_matches_elementwise_loop(store):
    chars = [[2, 5, 3, 7, 8]]
    emb = embed_tokens([4], [c + [0] * 0 for c in chars], store)
    table = store["emb.char"].data
    expected = np.max([table[c] for c in chars[0]], axis=0)
    assert np.allclose(emb.data[0, 6:], expected, atol=1e-6)


def test_shared_char_rows_give_the_per_token_max_bit_for_bit(store):
    from cfqa.checks import embed_tokens_per_token

    tokens = [3, 4, 3, 5, 6, 3]
    chars = [[2, 5, 0, 0], [3, 0, 0, 0], [2, 5, 0, 0], [2, 5, 0, 0],
             [3, 0, 0, 0], [7, 8, 1, 4]]
    assert np.array_equal(embed_tokens(tokens, chars, store).data,
                          embed_tokens_per_token(tokens, chars, store).data)


def test_out_of_range_token_raises(store):
    with pytest.raises(IndexError):
        embed_tokens([99], [[1, 0, 0, 0]], store)


# ------------------------------------------------------------------- encoding

def both_attention_paths(q, k, v, n_heads):
    """``attention_heads`` read with no tape and under a tape; a tape adds
    only the vjp, so the two agree bit for bit."""
    plain = T.attention_heads(Tensor(q), Tensor(k), Tensor(v), n_heads).data
    with Tape():
        taped = T.attention_heads(*(Tensor(a, requires_grad=True) for a in (q, k, v)),
                                  n_heads).data
    assert np.array_equal(plain, taped)
    return plain, taped


def test_taped_attention_holds_no_head_probabilities_until_backward():
    # a long document's state reads 512 queries over 1,900 keys at paper
    # width; the vjp recomputes the probabilities, so between forward and
    # backward the tape holds less than one head's [512 x 1,900] of them
    m, n, d, n_heads = 512, 1900, 128, 4
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.normal(0, 1, (rows, d)), requires_grad=True)
               for rows in (m, n, n))
    one_head = m * n * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = T.attention_heads(q, k, v, n_heads)
            held, _ = tracemalloc.get_traced_memory()
            tape.backward(T.reduce_sum(out))
    finally:
        tracemalloc.stop()
    assert held - out.data.nbytes < one_head
    assert all(leaf.grad.shape == leaf.data.shape for leaf in (q, k, v))


def test_single_position_sequence_shape(store):
    cfg = small_cfg()
    enc = encode_tokens([3], [[2, 1, 0, 0]], cfg, store)
    assert enc.matrix.data.shape == (1, cfg.d_model)
    # a single key row takes all of every head's weight
    q, k, v = np.random.default_rng(1).normal(0, 1, (3, 1, cfg.d_model))
    for out in both_attention_paths(q, k, v, cfg.n_heads):
        assert out.shape == (1, cfg.d_model)
        assert np.allclose(out, v, atol=1e-6)


def test_block_with_a_one_wide_kernel_is_permutation_equivariant():
    # positions are added before the block; with k_s=1 the convolution
    # reads one row, so nothing inside the block sees a row's place
    cfg = small_cfg(k_s=1)
    store = ParamStore()
    create_encoder_params(store, cfg, n_words=12, n_chars=9,
                          rng=np.random.default_rng(3))
    x = np.random.default_rng(4).normal(0, 1, (5, cfg.d_model))
    base = encoder_block(Tensor(x), cfg, store, "enc").data
    perm = [3, 1, 2, 0, 4]
    out = encoder_block(Tensor(x[perm]), cfg, store, "enc").data
    assert np.allclose(out, base[perm], atol=1e-5)


def test_equal_tokens_give_uniform_attention():
    rng = np.random.default_rng(4)
    q = rng.normal(0, 1, (3, 8))
    k = np.tile(rng.normal(0, 1, 8), (4, 1))
    v = rng.normal(0, 1, (4, 8))
    for out in both_attention_paths(q, k, v, 2):
        assert np.allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-6)


def test_attention_rows_sum_to_one():
    # every head's weights sum to one, so all-ones values come back as ones
    rng = np.random.default_rng(5)
    q, k = rng.normal(0, 1, (5, 8)), rng.normal(0, 1, (6, 8))
    for out in both_attention_paths(q, k, np.ones((6, 8)), 2):
        assert np.allclose(out, 1.0, atol=1e-6)


def test_single_head_matches_hand_rolled_oracle():
    cfg = small_cfg(n_heads=1)
    store = ParamStore()
    create_encoder_params(store, cfg, n_words=12, n_chars=9,
                          rng=np.random.default_rng(6))
    x_np = np.random.default_rng(7).normal(0, 1, (5, cfg.d_model))
    got = self_attention(Tensor(x_np), 1, store, "enc").data

    q = x_np @ store["enc.attn_q"].data
    k = x_np @ store["enc.attn_k"].data
    v = x_np @ store["enc.attn_v"].data
    scores = q @ k.T / np.sqrt(cfg.d_model)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    want = (attn @ v) @ store["enc.attn_o"].data
    assert np.allclose(got, want, atol=1e-5)


def test_gradients_reach_both_embedding_tables(store):
    cfg = small_cfg()
    with Tape() as tape:
        enc = encode_tokens([3, 4], [[2, 1, 0, 0], [3, 0, 0, 0]], cfg, store)
        tape.backward(T.reduce_sum(T.square(enc.matrix)))
    assert store["emb.word"].grad is not None
    assert np.abs(store["emb.word"].grad).sum() > 0
    assert store["emb.char"].grad is not None
    assert np.abs(store["emb.char"].grad).sum() > 0


def test_positions_follow_sine_cosine_pattern():
    enc = sinusoidal_positions(3, 4, np.float64)
    assert np.allclose(enc[0], [0.0, 1.0, 0.0, 1.0])
    assert np.allclose(enc[1, 0], np.sin(1.0))
    assert np.allclose(enc[1, 1], np.cos(1.0))


def test_positions_are_read_only_slices_of_one_growing_table():
    short = sinusoidal_positions(5, 6, np.float32).copy()
    long = sinusoidal_positions(700, 6, np.float32)
    assert long.shape == (700, 6) and long.dtype == np.float32
    assert np.array_equal(sinusoidal_positions(5, 6, np.float32), short)
    assert np.array_equal(long[:5], short)
    pos = np.arange(700, dtype=np.float64)[:, None]
    dim = np.arange(6, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / 6)
    want = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle)).astype(np.float32)
    assert np.array_equal(long, want)
    with pytest.raises(ValueError):
        long[0, 0] = 1.0


def test_same_params_encode_doc_and_question(store):
    cfg = small_cfg()
    doc_out = encode_tokens([3, 4, 5], [[2, 0, 0, 0]] * 3, cfg, store)
    q_out = encode_tokens([3, 4, 5], [[2, 0, 0, 0]] * 3, cfg, store)
    assert np.array_equal(doc_out.matrix.data, q_out.matrix.data)


# ------------------------------------------------------- rows read on demand

TOKENS = [3, 4, 5, 6, 7, 8, 9]
CHARS = [[2, 1, 0, 0], [3, 0, 0, 0], [4, 5, 0, 0], [2, 0, 0, 0],
         [6, 7, 8, 0], [1, 0, 0, 0], [3, 3, 0, 0]]


def test_rows_come_in_the_order_asked_and_match_the_matrix(store):
    cfg = small_cfg()
    enc = encode_tokens(TOKENS, CHARS, cfg, store)
    picked = enc.rows([5, 2, 2, 0]).data
    assert np.array_equal(picked, enc.matrix.data[[5, 2, 2, 0]])
