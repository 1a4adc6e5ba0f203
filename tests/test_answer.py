import numpy as np
import pytest

from cfqa import tensor as T
from cfqa.answer import (answer_forward, context_query_attention,
                         create_answer_params, decode_span, model_encode,
                         span_nll, trilinear_similarity)
from cfqa.encoder import EncoderConfig, create_encoder_params
from cfqa.params import ParamStore
from cfqa.tensor import Tape, Tensor


def small_cfg():
    return EncoderConfig(d1=6, d2=4, d_model=8, k_s=3, n_heads=2)


@pytest.fixture
def store():
    cfg = small_cfg()
    s = ParamStore()
    rng = np.random.default_rng(0)
    create_encoder_params(s, cfg, n_words=12, n_chars=9, rng=rng)
    create_answer_params(s, cfg, rng)
    return s


def enc(rng, n, d=8):
    return Tensor(rng.normal(0, 1, (n, d)))


# ------------------------------------------------------------------ trilinear

def test_zero_weights_give_uniform_row_softmax():
    rng = np.random.default_rng(1)
    q, d = enc(rng, 3), enc(rng, 4)
    s = trilinear_similarity(q, d, Tensor(np.zeros(24)))
    assert np.array_equal(s.data, np.zeros((4, 3)))
    probs = T.softmax(s, axis=1).data
    assert np.allclose(probs, 1.0 / 3.0)


def test_scalar_case_is_a_dot_product():
    rng = np.random.default_rng(2)
    q, d = enc(rng, 1), enc(rng, 1)
    w = Tensor(rng.normal(0, 1, 24))
    s = trilinear_similarity(q, d, w)
    qv, dv = q.data[0], d.data[0]
    want = w.data @ np.concatenate([qv, dv, qv * dv])
    assert s.data.shape == (1, 1)
    assert np.allclose(s.data[0, 0], want, atol=1e-6)


# --------------------------------------------------------- cq attention

def test_single_question_token_copies_it_everywhere():
    rng = np.random.default_rng(4)
    q, d = enc(rng, 1), enc(rng, 4)
    s = Tensor(rng.normal(0, 1, (4, 1)))
    pair = context_query_attention(s, q, d)
    for i in range(4):
        assert np.allclose(pair.a.data[i], q.data[0], atol=1e-6)


def test_row_and_column_softmaxes_are_simplices():
    rng = np.random.default_rng(5)
    s = Tensor(rng.normal(0, 1, (5, 3)))
    rows = T.softmax(s, axis=1).data
    cols = T.softmax(s, axis=0).data
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-6)
    assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-6)


# ------------------------------------------------------------- model encoder

def test_three_passes_share_one_parameter_set(store):
    m2_names = [n for n in store.names() if n.startswith("m2.")]
    # one conv + four attention + four feed-forward tensors, no per-pass copies
    assert len(m2_names) == 10
    assert not any(n.startswith("m2_") or ".pass" in n for n in store.names())


def test_model_encode_shapes(store):
    cfg = small_cfg()
    rng = np.random.default_rng(8)
    q, d = enc(rng, 2), enc(rng, 5)
    s = trilinear_similarity(q, d, store["ans.w_sim"])
    pair = context_query_attention(s, q, d)
    e0, e1, e2 = model_encode(d, pair, cfg, store)
    for e in (e0, e1, e2):
        assert e.data.shape == (5, cfg.d_model)
    assert not np.allclose(e0.data, e1.data)


def test_zeroing_attention_changes_first_pass(store):
    cfg = small_cfg()
    rng = np.random.default_rng(9)
    q, d = enc(rng, 2), enc(rng, 5)
    s = trilinear_similarity(q, d, store["ans.w_sim"])
    pair = context_query_attention(s, q, d)
    e0, _, _ = model_encode(d, pair, cfg, store)
    pair.a = Tensor(np.zeros_like(pair.a.data))
    pair.b = Tensor(np.zeros_like(pair.b.data))
    z0, _, _ = model_encode(d, pair, cfg, store)
    assert np.linalg.norm(e0.data - z0.data) > 0


# ----------------------------------------------------------------- span heads

def test_single_token_span_has_probability_one():
    p = np.array([1.0])
    start, end = decode_span(p, p, max_span_len=5)
    assert (start, end) == (0, 0)


def test_unimodal_distributions_pick_their_peaks():
    p_start = np.full(8, 0.01)
    p_start[2] = 0.93
    p_end = np.full(8, 0.01)
    p_end[5] = 0.93
    assert decode_span(p_start, p_end, max_span_len=10) == (2, 5)


def test_forward_produces_valid_span_and_distributions(store):
    cfg = small_cfg()
    rng = np.random.default_rng(11)
    q, d = enc(rng, 2), enc(rng, 6)
    out = answer_forward(q, d, cfg, store, max_span_len=3)
    assert 0 <= out.span.start <= out.span.end < 6
    assert out.span.end - out.span.start < 3
    assert abs(out.span.p_start.sum() - 1.0) < 1e-6
    assert abs(out.span.p_end.sum() - 1.0) < 1e-6
    assert np.isclose(out.span.score,
                      out.span.p_start[out.span.start] * out.span.p_end[out.span.end])


def test_span_nll_gradient_reaches_heads(store):
    cfg = small_cfg()
    rng = np.random.default_rng(12)
    q, d = enc(rng, 2), enc(rng, 5)
    with Tape() as tape:
        out = answer_forward(q, d, cfg, store, max_span_len=4)
        tape.backward(span_nll(out, 1, 2))
    assert store["ans.w_start"].grad is not None
    assert store["ans.w_end"].grad is not None
    assert store["ans.w_sim"].grad is not None
