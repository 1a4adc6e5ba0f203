import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from cfqa import synthetic
from cfqa.errors import ConfigError
from cfqa.synthetic import SyntheticConfig, gen_synthetic, write_jsonl
from cfqa.text import build_vocab, examples_from_records, find_subsequence


def test_gold_extractable_in_exactly_one_sentence_without_distractors():
    cfg = SyntheticConfig(n_docs=200, sentences_per_doc=(4, 8),
                          tokens_per_sentence=(4, 8), vocab_size=80,
                          distractor_rate=0.0)
    records = gen_synthetic(cfg, seed=3)
    vocab = build_vocab(records)
    for ex in examples_from_records(records, vocab):
        hits = [s for s in ex.doc.sentences
                if find_subsequence(s, ex.gold_answers[0]) is not None]
        assert len(hits) == 1


def test_gold_extractable_even_with_distractors():
    cfg = SyntheticConfig(n_docs=200, sentences_per_doc=(6, 10),
                          tokens_per_sentence=(4, 8), vocab_size=80,
                          distractor_rate=0.7)
    records = gen_synthetic(cfg, seed=4)
    vocab = build_vocab(records)
    for ex in examples_from_records(records, vocab):
        flat = ex.doc.flat_tokens()
        assert find_subsequence(flat, ex.gold_answers[0]) is not None


def test_question_tokens_present_in_answer_sentence():
    cfg = SyntheticConfig(n_docs=100, sentences_per_doc=(3, 6),
                          tokens_per_sentence=(5, 9), vocab_size=90,
                          distractor_rate=0.5)
    records = gen_synthetic(cfg, seed=5)
    vocab = build_vocab(records)
    for ex in examples_from_records(records, vocab):
        combined = ex.question + ex.gold_answers[0]
        hits = [s for s in ex.doc.sentences
                if find_subsequence(s, combined) is not None]
        assert len(hits) == 1


def test_same_seed_byte_identical(tmp_path):
    cfg = SyntheticConfig(n_docs=50, distractor_rate=0.4)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(a, gen_synthetic(cfg, seed=9))
    write_jsonl(b, gen_synthetic(cfg, seed=9))
    assert a.read_bytes() == b.read_bytes()


SHORT = dict(sentences_per_doc=(8, 12), tokens_per_sentence=(5, 9))
LONG = dict(sentences_per_doc=(150, 200), tokens_per_sentence=(8, 14))


# digests of json.dumps(records, sort_keys=True), pinned so that any change
# to the order or the number of draws from the seeded generator shows
@pytest.mark.parametrize("kwargs, seed, digest", [
    (dict(n_docs=200, **SHORT, distractor_rate=0.5), 0,
     "d4312f94da420c19751ab4746bd0df56fa72083e0977044abef7858bf102f0d6"),
    (dict(n_docs=200, **SHORT, distractor_rate=0.5), 1,
     "77006dea61033f0b65e55deed7564f37e65af28aad9fbc3ebcb4fa7f3b048f04"),
    (dict(n_docs=400, **SHORT, distractor_rate=0.5), 0,
     "9df8e77064fefdb9a18b2b74b3b275be170abf56bb03cf9934ad07ca46252c9e"),
    (dict(n_docs=400, **SHORT, distractor_rate=0.5), 1,
     "592f37f58d603ac50744163dbaa34f812f75f8bb8fd3e0590a85ec88c8fc5a82"),
    (dict(n_docs=64, **LONG, distractor_rate=0.5), 0,
     "53adeac1b68527506ad020be97db0245135fabca75bf002a3a0af79fe7b023ed"),
    (dict(n_docs=64, **LONG, distractor_rate=0.5), 1,
     "50746eeca7d4eca3b946837552c55087f1b862d1d17c39001302d9da6c5136d7"),
    # every sentence but the answer's a distractor: drop-one keys, and at
    # (4, 8) blocks cut to the sentence length
    (dict(distractor_rate=1.0, tokens_per_sentence=(4, 4), vocab_size=50), 0,
     "156531720a9663183358fa39290944f004e877391c973385b75454f55ed88ff2"),
    (dict(distractor_rate=1.0, tokens_per_sentence=(4, 8), vocab_size=50), 0,
     "c4e32e30bdba934d6bd461307e8104dc2630da90dac980fc8885727a7afa4e4b"),
    (dict(n_docs=200, **SHORT, distractor_rate=0.0), 0,
     "c560c71add44c1f240a0d04b696a831771130084570d62a3a7f662439d472c02"),
    (dict(), 0,
     "151cf6f0d39172ef0c9a53397fa031bf3a086fb6fd978e2f1a77474faa18a9e0"),
])
def test_records_match_their_pinned_digest(kwargs, seed, digest):
    records = gen_synthetic(SyntheticConfig(**kwargs), seed)
    payload = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == digest


class _CountingGenerator:
    """The calls made to a numpy Generator, by method name."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


def test_each_sentence_takes_three_generator_calls_and_the_answer_two(monkeypatch):
    rngs = []
    real_default_rng = np.random.default_rng

    def counting_default_rng(seed):
        rngs.append(_CountingGenerator(real_default_rng(seed)))
        return rngs[-1]

    monkeypatch.setattr(synthetic.np.random, "default_rng", counting_default_rng)
    records = gen_synthetic(SyntheticConfig(n_docs=4, **LONG), seed=0)
    n_docs = len(records)
    n_plain = sum(rec["document"].count(" . ") for rec in records)
    # per document: 6 integers (sentence count, lengths, answer sentence and
    # its length, answer and key lengths) and 2 choices (key, answer); per
    # sentence: its filler lead and fillers, and for all but the answer's a
    # distractor draw
    assert rngs[0].calls == Counter(integers=6 * n_docs + 2 * (n_plain + n_docs),
                                    choice=2 * n_docs, random=n_plain)


def test_different_seed_differs(tmp_path):
    cfg = SyntheticConfig(n_docs=50)
    assert gen_synthetic(cfg, seed=1) != gen_synthetic(cfg, seed=2)


def test_distractor_fraction_matches_closed_form():
    # fixed sentence count so the per-document probability is exact:
    # P(at least one distractor) = 1 - (1 - rate)^(n_sentences - 1)
    n_sentences, rate = 6, 0.5
    cfg = SyntheticConfig(n_docs=1000, sentences_per_doc=(n_sentences, n_sentences),
                          tokens_per_sentence=(4, 8), vocab_size=80,
                          distractor_rate=rate)
    records = gen_synthetic(cfg, seed=6)
    vocab = build_vocab(records)
    examples = examples_from_records(records, vocab)
    value_ids = {vocab.word_id(f"v{i}") for i in range(16)}

    def has_distractor(ex):
        gold_sent = next(i for i, s in enumerate(ex.doc.sentences)
                         if find_subsequence(s, ex.question + ex.gold_answers[0]) is not None)
        for i, s in enumerate(ex.doc.sentences):
            if i != gold_sent and any(t in value_ids for t in s):
                return True
        return False

    measured = np.mean([has_distractor(ex) for ex in examples])
    expected = 1.0 - (1.0 - rate) ** (n_sentences - 1)
    assert abs(measured - expected) <= 0.03


def test_infeasible_config_rejected():
    with pytest.raises(ConfigError):
        SyntheticConfig(tokens_per_sentence=(2, 4)).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(vocab_size=20).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(sentences_per_doc=(5, 3)).validate()


def test_answer_value_never_reused_as_distractor_value():
    cfg = SyntheticConfig(n_docs=300, sentences_per_doc=(5, 8),
                          tokens_per_sentence=(4, 7), vocab_size=70,
                          distractor_rate=0.8)
    records = gen_synthetic(cfg, seed=7)
    vocab = build_vocab(records)
    for ex in examples_from_records(records, vocab):
        gold = ex.gold_answers[0]
        flat = ex.doc.flat_tokens()
        # every occurrence of the first gold token heads a full gold answer
        starts = [i for i, t in enumerate(flat) if t == gold[0]]
        for s in starts:
            assert flat[s:s + len(gold)] == gold


def test_records_match_loader_schema(tmp_path):
    cfg = SyntheticConfig(n_docs=5)
    path = tmp_path / "c.jsonl"
    write_jsonl(path, gen_synthetic(cfg, seed=8))
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"id", "document", "question", "answers"}
