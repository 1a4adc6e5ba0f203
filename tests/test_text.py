import json

import numpy as np
import pytest

from cfqa.errors import ContractError, DataError
from cfqa.synthetic import SyntheticConfig, gen_synthetic
from cfqa.text import (PAD_ID, SEP_ID, UNK_ID, QAExample, TokenDoc, Vocab,
                       build_vocab, detokenize, examples_from_records,
                       find_subsequence, load_glove, load_vocab,
                       read_jsonl, save_vocab, split_sentences, split_words,
                       tokenize, truncate_doc)


@pytest.fixture
def vocab():
    return Vocab(["a", "b", "c", "d", "hello"], list("abcdhelo"), char_width=6)


def test_reserved_ids():
    v = Vocab(["x"], ["x"])
    assert v.word_to_id["<pad>"] == PAD_ID
    assert v.word_to_id["<unk>"] == UNK_ID
    assert v.word_to_id["<sep>"] == SEP_ID


def test_two_sentence_split(vocab):
    doc = tokenize("A b. C d.", vocab)
    assert doc.n_sentences == 2
    assert doc.sentences == [[vocab.word_id("a"), vocab.word_id("b")],
                             [vocab.word_id("c"), vocab.word_id("d")]]


def test_single_word(vocab):
    doc = tokenize("Hello", vocab)
    assert doc.n_sentences == 1
    assert doc.sentences == [[vocab.word_id("hello")]]


def test_empty_text_rejected(vocab):
    with pytest.raises(DataError):
        tokenize("   ", vocab)


def test_unknown_word_maps_to_unk(vocab):
    doc = tokenize("zebra", vocab)
    assert doc.sentences == [[UNK_ID]]


def test_provenance_strictly_increasing(vocab):
    doc = tokenize("a b c. d a.", vocab)
    assert doc.positions == [0, 1, 2, 3, 4]
    assert truncate_doc(doc, 4).positions == [0, 1, 2, 3]


def test_detokenize_tokenize_round_trip_on_synthetic_corpus():
    cfg = SyntheticConfig(n_docs=1000, sentences_per_doc=(2, 5),
                          tokens_per_sentence=(4, 7), vocab_size=60,
                          distractor_rate=0.3)
    records = gen_synthetic(cfg, seed=11)
    vocab = build_vocab(records)
    for rec in records:
        doc = tokenize(rec["document"], vocab)
        text1 = detokenize(doc, vocab)
        text2 = detokenize(tokenize(text1, vocab), vocab)
        assert text1 == text2


def test_vocab_round_trip_nonreserved(vocab):
    for i in range(3, vocab.n_words):
        assert vocab.word_id(vocab.word(i)) == i


def test_char_ids_pad_and_truncate(vocab):
    ids = vocab.char_ids("hello")
    assert len(ids) == 6
    assert ids[-1] == PAD_ID
    long_ids = vocab.char_ids("hellohello")
    assert len(long_ids) == 6
    assert PAD_ID not in long_ids


def test_memoized_char_ids_give_one_shared_read_only_row_per_word():
    cfg = SyntheticConfig(n_docs=40, sentences_per_doc=(2, 5),
                          tokens_per_sentence=(4, 7), vocab_size=60,
                          distractor_rate=0.3)
    records = gen_synthetic(cfg, seed=5)
    vocab = build_vocab(records[:20], char_width=4)   # some later words are unknown
    memoized = examples_from_records(records, vocab)

    # every token of one word holds the one row of that word
    rows_of: dict[int, set] = {}
    for ex in memoized:
        pairs = list(zip(ex.doc.flat_tokens(), ex.doc.flat_char_ids()))
        pairs += zip(ex.question, ex.question_chars)
        for token, row in pairs:
            if token != UNK_ID:
                rows_of.setdefault(token, set()).add(id(row))
    assert len(rows_of) > 20 and all(len(ids) == 1 for ids in rows_of.values())
    assert vocab.char_ids("hello") is vocab.char_ids("hello")

    row = memoized[0].doc.char_ids[0][0]
    with pytest.raises(TypeError):
        row[0] = -1

    doc = memoized[0].doc
    index = list(range(doc.n_tokens))[::-1]
    taken = doc.take(index, [len(index)])
    chars = doc.flat_char_ids()
    assert all(a is chars[i] for a, i in zip(taken.flat_char_ids(), index))


def _char_row(vocab, w):
    ids = [vocab.char_to_id.get(c, UNK_ID) for c in w[:vocab.char_width]]
    return tuple(ids + [PAD_ID] * (vocab.char_width - len(ids)))


@pytest.mark.parametrize("encode_first", [True, False])
def test_encode_words_gives_each_word_its_id_and_its_one_char_row(encode_first):
    vocab = Vocab(["a", "hello", "hellohello"], list("aehlo"), char_width=6)
    words = ["a", "hello", "hellohello",        # in vocab, the last cut
             "zz", "zzzzzzzzz"]                 # unknown, the last cut
    if not encode_first:
        rows = [vocab.char_ids(w) for w in words]
    ids, chars = vocab.encode_words(words + words)
    if encode_first:
        rows = [vocab.char_ids(w) for w in words]
    assert ids == [vocab.word_id(w) for w in words] * 2
    assert ids[3:5] == [UNK_ID, UNK_ID]
    assert all(got is row for got, row in zip(chars, rows + rows))
    assert rows == [_char_row(vocab, w) for w in words]


@pytest.mark.parametrize("max_doc_tokens", [0, 40])
def test_examples_from_records_match_a_per_token_oracle(max_doc_tokens):
    cfg = SyntheticConfig(n_docs=40, sentences_per_doc=(4, 9),
                          tokens_per_sentence=(4, 8), vocab_size=60,
                          distractor_rate=0.5)
    records = gen_synthetic(cfg, seed=11)
    vocab = build_vocab(records[:10], char_width=2)   # later words are unknown
    examples = examples_from_records(records, vocab, max_doc_tokens=max_doc_tokens)

    def encode(words):
        return ([vocab.word_to_id.get(w, UNK_ID) for w in words],
                [_char_row(vocab, w) for w in words])

    expected = []
    for rec in records:
        words = split_sentences(rec["document"])
        sentences, left = [], max_doc_tokens or sum(map(len, words))
        for sent in words:
            if left > 0:
                sentences.append(sent[:left])
                left -= len(sentences[-1])
        encoded = [encode(s) for s in sentences]
        doc = TokenDoc([e[0] for e in encoded], [e[1] for e in encoded])
        answers = [encode(split_words(a))[0] for a in rec["answers"]]
        expected.append(QAExample(rec["id"], doc, *encode(split_words(rec["question"])),
                                  answers))
    assert examples == expected
    assert max_doc_tokens == 0 or max(ex.doc.n_tokens for ex in examples) == max_doc_tokens

    # one memo entry per distinct word encoded, and no second table of rows
    seen = {w for rec in records
            for text in (rec["document"], rec["question"], *rec["answers"])
            for w in split_words(text)}
    assert len(vocab._encoded) == len(seen)
    assert {k for k, v in vars(vocab).items() if isinstance(v, dict)} == {
        "word_to_id", "char_to_id", "_encoded"}


def test_vocab_build_counts_chars_in_first_occurrence_order():
    tokens = [["bc", "ab"], ["bc", "cd", "ab", "de"]]
    vocab = Vocab.build(tokens)
    flat = [w for t in tokens for w in t]
    assert vocab.words[3:] == ["bc", "ab", "cd", "de"]
    assert vocab.chars == Vocab(flat, (c for w in flat for c in w)).chars
    assert vocab.chars[2:] == ["b", "c", "a", "d", "e"]


def load_examples(path):
    """A dataset file through the loading path: records, then a vocab built
    from them, then examples."""
    records = read_jsonl(path)
    vocab = build_vocab(records)
    return examples_from_records(records, vocab), vocab


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    examples, _ = load_examples(path)
    assert examples == []


def test_load_dataset_single_line(tmp_path):
    path = tmp_path / "one.jsonl"
    rec = {"id": "x1", "document": "The cat sat. It purred.",
           "question": "cat", "answers": ["sat"]}
    path.write_text(json.dumps(rec) + "\n")
    examples, vocab = load_examples(path)
    assert len(examples) == 1
    assert examples[0].id == "x1"
    assert examples[0].doc.n_sentences == 2


def test_load_dataset_answer_absent_from_document_is_legal(tmp_path):
    path = tmp_path / "odd.jsonl"
    rec = {"id": "x2", "document": "Alpha beta gamma.",
           "question": "alpha", "answers": ["omega"]}
    path.write_text(json.dumps(rec) + "\n")
    examples, _ = load_examples(path)
    assert len(examples) == 1
    assert examples[0].gold_answers[0] == [UNK_ID]


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "document": "d.", "question": "q", "answers": ["x"]}\n'
                    "{broken\n")
    with pytest.raises(DataError) as err:
        read_jsonl(path)
    assert "line 2" in str(err.value)


def test_missing_field_names_field_and_line(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text('{"id": "a", "document": "d.", "answers": ["x"]}\n')
    with pytest.raises(DataError) as err:
        read_jsonl(path)
    assert "question" in str(err.value) and "line 1" in str(err.value)


GOOD_RECORD = {"id": "a", "document": "Alpha beta.", "question": "alpha",
               "answers": ["beta"]}


@pytest.mark.parametrize("bad, names", [
    ({"document": 5}, "document"),
    ({"document": ["x"]}, "document"),
    ({"document": "  "}, "document"),
    ({"question": None}, "question"),
    ({"answers": [3]}, "answers"),
    ({"answers": ["beta", ""]}, "answers"),
    ({"answers": "beta"}, "answers"),
    ({"document": "..."}, "document"),
    ({"question": "?"}, "question"),
    ({"answers": ["beta", "..."]}, "answers"),
])
def test_mistyped_field_names_field_and_line(tmp_path, bad, names):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n"
                    + json.dumps({**GOOD_RECORD, **bad}) + "\n")
    with pytest.raises(DataError) as err:
        read_jsonl(path)
    assert names in str(err.value) and "line 2" in str(err.value)


def test_non_object_line_is_a_data_error(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('["a", "b"]\n')
    with pytest.raises(DataError, match="line 1: expected a JSON object"):
        read_jsonl(path)


@pytest.mark.parametrize("text", ["{}", "not json", "[1, 2]", "\udcff",
                                  '{"words": [1], "chars": [], "char_width": 4}',
                                  '{"words": [], "chars": [], "char_width": 0}'])
def test_malformed_vocab_file_is_a_data_error_naming_it(tmp_path, text):
    path = tmp_path / "vocab.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(DataError, match="vocab.json"):
        load_vocab(path)


def test_truncate_doc_keeps_sentence_structure(vocab):
    doc = tokenize("a b c. d a b. c d.", vocab)
    cut = truncate_doc(doc, 4)
    assert cut.n_tokens == 4
    assert cut.n_sentences == 2
    assert cut.sentences[0] == doc.sentences[0]


def test_take_cuts_the_taken_tokens_into_sentences_and_keeps_positions(vocab):
    doc = tokenize("a b c. d a b. c d.", vocab)
    doc.positions = [10 + p for p in doc.positions]
    flat, chars = doc.flat_tokens(), doc.flat_char_ids()
    index = [6, 7, 0, 4, 5]
    taken = doc.take(index, [2, 3])
    assert taken.sentences == [[flat[6], flat[7]], [flat[0], flat[4], flat[5]]]
    assert taken.flat_char_ids() == [chars[i] for i in index]
    assert taken.positions == [16, 17, 10, 14, 15]
    with pytest.raises(ContractError):
        doc.take(index, [2, 2])


def test_find_subsequence():
    assert find_subsequence([5, 6, 7, 8], [6, 7]) == 1
    assert find_subsequence([5, 6, 7], [7, 6]) is None
    assert find_subsequence([5], [5, 6]) is None


def test_vocab_save_load_round_trip(tmp_path, vocab):
    save_vocab(tmp_path / "v.json", vocab)
    loaded = load_vocab(tmp_path / "v.json")
    assert loaded.words == vocab.words
    assert loaded.chars == vocab.chars
    assert loaded.char_width == vocab.char_width


def test_glove_loader_reads_text_format(tmp_path, vocab):
    dim = 4
    path = tmp_path / "vectors.txt"
    path.write_text("hello 0.1 0.2 0.3 0.4\nmissing 1 2 3 4\n")
    table = load_glove(path, vocab, dim=dim)
    assert table.shape == (vocab.n_words, dim)
    assert np.allclose(table[vocab.word_id("hello")], [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(table[vocab.word_id("a")], np.zeros(dim))


def test_glove_file_of_another_width_is_a_data_error(tmp_path, vocab):
    # 8-wide vectors read at dim=6 would otherwise give an all-zero table
    path = tmp_path / "vectors.txt"
    path.write_text("".join(f"{w} {' '.join(['0.5'] * 8)}\n" for w in ("hello", "a")))
    with pytest.raises(DataError, match=r"vectors\.txt.*dim=6"):
        load_glove(path, vocab, dim=6)


def test_token_doc_rejects_empty():
    with pytest.raises(DataError):
        TokenDoc([], [], [])
    with pytest.raises(DataError):
        TokenDoc([[]], [[]], [[]])
