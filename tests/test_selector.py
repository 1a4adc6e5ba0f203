import numpy as np
import pytest

from cfqa.encoder import EncoderConfig, create_encoder_params, encode_tokens
from cfqa.errors import ContractError
from cfqa.params import ParamStore
from cfqa.selector import (SentenceDist, create_selector_params,
                           score_sentences, select_top_k, top_k_indices)
from cfqa.tensor import Tensor
from cfqa.text import TokenDoc


def small_cfg():
    return EncoderConfig(d1=6, d2=4, d_model=8, k_s=3, n_heads=2)


SEL_KERNEL, SEL_FILTERS = 3, 5


@pytest.fixture
def setup():
    cfg = small_cfg()
    store = ParamStore()
    rng = np.random.default_rng(0)
    create_encoder_params(store, cfg, n_words=20, n_chars=9, rng=rng)
    create_selector_params(store, cfg, SEL_KERNEL, SEL_FILTERS, rng)
    return cfg, store


def make_doc(sentences):
    return TokenDoc([list(s) for s in sentences], [[[1, 0]] * len(s) for s in sentences])


def encode_q(cfg, store, tokens=(3, 4)):
    return encode_tokens(list(tokens), [[1, 0]] * len(tokens), cfg, store).matrix


def score(q, doc, cfg, store):
    """Score ``doc`` from its own encoding's projected rows, as a step does."""
    ctx_enc = encode_tokens(doc.flat_tokens(), doc.flat_char_ids(), cfg, store)
    return score_sentences(q, doc, ctx_enc.projected, cfg, store)


def test_single_sentence_prob_one(setup):
    cfg, store = setup
    dist = score(encode_q(cfg, store), make_doc([[5, 6, 7]]), cfg, store)
    assert np.allclose(dist.probs, [1.0])


def test_identical_sentences_split_evenly(setup):
    cfg, store = setup
    doc = make_doc([[5, 6, 7], [5, 6, 7]])
    dist = score(encode_q(cfg, store), doc, cfg, store)
    assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-6)


def test_scores_match_unbatched_numpy_oracle(setup):
    cfg, store = setup
    doc = make_doc([[5, 6, 7, 8], [9, 10], [11, 12, 13]])
    q = encode_q(cfg, store)
    dist = score(q, doc, cfg, store)

    # independent oracle: plain numpy, one sentence at a time
    def embed(tokens, chars):
        w = store["emb.word"].data[tokens]
        c = np.stack([np.max(np.where((np.array(ch)[:, None] != 0),
                                      store["emb.char"].data[ch],
                                      -np.inf), axis=0) for ch in chars])
        return np.concatenate([w, c], axis=1)

    def project(x):
        y = x @ store["enc.proj_w"].data + store["enc.proj_b"].data
        n, d = y.shape
        pos = np.arange(n)[:, None]
        dim = np.arange(d)[None, :]
        angle = pos / np.power(10000.0, (2 * (dim // 2)) / d)
        return y + np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))

    def conv(x, f):
        k = f.shape[0]
        half = k // 2
        out = np.zeros((x.shape[0], f.shape[2]))
        for t in range(x.shape[0]):
            for dt in range(k):
                src = t + dt - half
                if 0 <= src < x.shape[0]:
                    out[t] += x[src] @ f[dt]
        return out

    scores = []
    for tokens, chars in zip(doc.sentences, doc.char_ids):
        sent = project(embed(tokens, chars))
        seq = np.concatenate([q.data, sent], axis=0)
        h = np.maximum(conv(seq, store["sel.conv_w"].data)
                       + store["sel.conv_b"].data, 0.0)
        scores.append(float(h.max(axis=0) @ store["sel.score_w"].data))
    scores = np.array(scores)
    expected = np.exp(scores - scores.max())
    expected /= expected.sum()
    assert np.allclose(dist.probs, expected, atol=1e-5)


def test_empty_context_is_contract_error(setup):
    cfg, store = setup
    doc = make_doc([[5]])
    doc.sentences = []
    with pytest.raises(ContractError):
        score_sentences(encode_q(cfg, store), doc, Tensor(np.zeros((0, 8))),
                        cfg, store)


def test_rows_of_another_context_are_contract_error(setup):
    cfg, store = setup
    other = encode_tokens([5, 6], [[1, 0]] * 2, cfg, store)
    with pytest.raises(ContractError):
        score_sentences(encode_q(cfg, store), make_doc([[5, 6, 7]]),
                        other.projected, cfg, store)


# ----------------------------------------------------------------- narrowing

def _dist(probs):
    return SentenceDist(probs=np.asarray(probs, dtype=np.float64),
                        logits=Tensor(np.log(np.asarray(probs) + 1e-12)))


def test_top_k_clamps_to_sentence_count(setup):
    doc = make_doc([[5, 6], [7, 8]])
    narrowed, kept = select_top_k(_dist([0.3, 0.7]), doc, 5)
    assert kept == [0, 1]
    assert narrowed.sentences == doc.sentences


def test_top_k_by_inspection(setup):
    doc = make_doc([[5], [6], [7]])
    narrowed, kept = select_top_k(_dist([0.1, 0.7, 0.2]), doc, 2)
    assert kept == [1, 2]
    assert narrowed.sentences == [[6], [7]]


def test_top_k_ties_prefer_lower_index():
    assert top_k_indices(np.array([0.25, 0.25, 0.25, 0.25]), 2) == [0, 1]


def test_narrowing_preserves_order_and_provenance(setup):
    doc = make_doc([[5, 6], [7], [8, 9], [10]])
    narrowed, kept = select_top_k(_dist([0.4, 0.05, 0.5, 0.05]), doc, 2)
    assert kept == [0, 2]
    assert narrowed.sentences == [[5, 6], [8, 9]]
    assert narrowed.positions == [0, 1, 3, 4]
    assert narrowed.n_tokens <= doc.n_tokens


def test_gold_inside_selected_sentence_stays_contiguous(setup):
    doc = make_doc([[5, 6], [7, 8, 9], [10]])
    gold = [8, 9]
    narrowed, _ = select_top_k(_dist([0.1, 0.8, 0.1]), doc, 1)
    from cfqa.text import find_subsequence
    assert find_subsequence(narrowed.flat_tokens(), gold) is not None


def test_selection_invariant_to_constant_score_shift():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        scores = rng.normal(0, 1, n)
        k = int(rng.integers(1, n + 1))

        def softmax(z):
            e = np.exp(z - z.max())
            return e / e.sum()

        assert (top_k_indices(softmax(scores), k)
                == top_k_indices(softmax(scores + 3.7), k))


def test_model_scores_a_context_from_its_encoding_like_the_oracle():
    # QaModel hands the selector the step encoding's projected rows; the
    # oracle embeds and projects each sentence itself
    from cfqa.checks import score_sentences_loop, tiny_config, tiny_example, toy_vocab
    from cfqa.model import QaModel

    vocab = toy_vocab()
    model = QaModel(tiny_config(seed=4), vocab, seed=4)
    ex = tiny_example(np.random.default_rng(4), vocab, n_sentences=4)
    q_enc = model.encode_question(ex)
    got = model.sentence_dist(q_enc, ex.doc, model.encode_doc(ex.doc))
    want = score_sentences_loop(q_enc.matrix, ex.doc, model.enc_cfg, model.store)
    assert np.allclose(got.logits.data, want.logits.data, rtol=1e-5, atol=1e-6)
