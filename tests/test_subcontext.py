import numpy as np
import pytest

from cfqa.errors import ContractError, ExcisionEmptyError
from cfqa.subcontext import excise_span
from cfqa.text import TokenDoc, find_subsequence


def make_doc(sentences):
    return TokenDoc([list(s) for s in sentences], [[[1]] * len(s) for s in sentences])


def test_removing_a_whole_sentence_drops_it():
    doc = make_doc([[5, 6, 7], [8, 9]])
    out = excise_span(doc, 0, 2)
    assert out.sentences == [[8, 9]]
    assert out.positions == [3, 4]


def test_interior_splice_merges_remnants():
    doc = make_doc([[1, 2, 3, 4, 5]])
    out = excise_span(doc, 1, 3)
    assert out.sentences == [[1, 5]]
    assert out.positions == [0, 4]


def test_cut_across_sentences_merges_flanks_into_one_sentence():
    doc = make_doc([[1, 2], [3, 4], [5, 6]])
    out = excise_span(doc, 1, 4)
    assert out.sentences == [[1, 6]]
    assert out.positions == [0, 5]


def test_untouched_sentences_keep_their_boundaries():
    doc = make_doc([[1, 2], [3, 4], [5, 6]])
    out = excise_span(doc, 2, 3)
    assert out.sentences == [[1, 2], [5, 6]]


def test_token_count_strictly_decreases():
    doc = make_doc([[1, 2, 3], [4, 5]])
    out = excise_span(doc, 2, 3)
    assert out.n_tokens == 3


def test_gold_outside_cut_stays_contiguous():
    doc = make_doc([[1, 2], [3, 4, 5], [6, 7]])
    gold = [3, 4, 5]
    out = excise_span(doc, 5, 6)
    assert find_subsequence(out.flat_tokens(), gold) is not None


def test_excising_everything_is_refused():
    doc = make_doc([[1, 2], [3]])
    with pytest.raises(ExcisionEmptyError):
        excise_span(doc, 0, 2)


def test_out_of_range_span_rejected():
    doc = make_doc([[1, 2, 3]])
    with pytest.raises(ContractError):
        excise_span(doc, 2, 5)
    with pytest.raises(ContractError):
        excise_span(doc, -1, 1)


def test_no_empty_sentences_after_excision():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n_sent = int(rng.integers(2, 5))
        lens = [int(rng.integers(1, 4)) for _ in range(n_sent)]
        total = sum(lens)
        sentences, pos = [], 0
        tokens = list(range(10, 10 + total))
        for ln in lens:
            sentences.append(tokens[pos:pos + ln])
            pos += ln
        doc = make_doc(sentences)
        start = int(rng.integers(0, total))
        end = int(rng.integers(start, total))
        if end - start + 1 >= total:
            continue
        out = excise_span(doc, start, end)
        assert all(len(s) >= 1 for s in out.sentences)
        assert out.n_tokens >= 1
