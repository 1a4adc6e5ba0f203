"""Seed-deterministic synthetic QA corpora.

Each document hides one key-value fact: the question is the key token
sequence (3 to 5 tokens) and the answer is the value planted right after
the key, in question order, in exactly one sentence. That answer sentence
is always drawn at the top of the sentence-length range, a structural cue
that sentence-wise processing can exploit but a flattened token stream
cannot (sentence boundaries vanish when a document is flattened).

Distractor sentences end in a wrong value and come in three flavors:
  - drop-one: one key token missing, detectable from token identities;
  - swap: full key with its first two tokens swapped, detectable only
    through token order;
  - full-key: the complete key in question order, token-for-token
    indistinguishable from the real pattern, so only sentence-level
    structure separates it from the answer.
The flavor mix is what makes narrowing and excision worth learning while
keeping direct extraction viable on most documents. The record schema is
the same JSONL schema the loader reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MIN_VOCAB = 50

# distractor flavor mix: swapped-order and full-key shares, the remainder
# drops one key token
SWAP_DISTRACTOR_SHARE = 0.30
FULL_KEY_DISTRACTOR_SHARE = 0.15


@dataclass
class SyntheticConfig:
    n_docs: int = 100
    sentences_per_doc: tuple[int, int] = (8, 12)
    tokens_per_sentence: tuple[int, int] = (5, 9)
    vocab_size: int = 120
    distractor_rate: float = 0.0

    def validate(self) -> None:
        if self.n_docs < 1:
            raise ConfigError("n_docs must be positive")
        for name, rng in (("sentences_per_doc", self.sentences_per_doc),
                          ("tokens_per_sentence", self.tokens_per_sentence)):
            if rng[0] < 1 or rng[1] < rng[0]:
                raise ConfigError(f"{name} range {rng} is empty or invalid")
        if self.vocab_size < MIN_VOCAB:
            raise ConfigError(f"vocab_size must be >= {MIN_VOCAB}")
        if self.tokens_per_sentence[0] < 4:
            raise ConfigError(
                "tokens_per_sentence must allow key (>=3) plus answer (>=1) "
                f"tokens; got minimum {self.tokens_per_sentence[0]}")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise ConfigError("distractor_rate must lie in [0,1]")


def _pools(vocab_size: int) -> tuple[list[str], list[str], list[str]]:
    n_keys = max(10, vocab_size // 5)
    n_vals = max(10, vocab_size // 5)
    n_fill = vocab_size - n_keys - n_vals
    keys = [f"k{i}" for i in range(n_keys)]
    values = [f"v{i}" for i in range(n_vals)]
    fillers = [f"f{i}" for i in range(n_fill)]
    return keys, values, fillers


def gen_synthetic(cfg: SyntheticConfig, seed: int) -> list[dict]:
    """Generate ``cfg.n_docs`` records of {id, document, question, answers}.

    The order of the draws is part of the output, pinned by the records'
    digests in the tests. Bounded integer draws of one range take the same
    values from the stream singly or as one sized call, which keeps that
    order while a document's sentence lengths, and a sentence's fillers
    before and after its block, each take one call.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    keys, values, fillers = _pools(cfg.vocab_size)
    n_fill = len(fillers)
    lo_s, hi_s = cfg.sentences_per_doc
    lo_t, hi_t = cfg.tokens_per_sentence
    records = []
    # answer sentences sit at the top of the length range; everything else
    # stays at least two tokens shorter when the range allows it
    other_hi = max(lo_t, hi_t - 2)
    ans_lo = max(lo_t, hi_t - 1)
    for doc_i in range(cfg.n_docs):
        n_sent = int(rng.integers(lo_s, hi_s + 1))
        sent_lens = rng.integers(lo_t, other_hi + 1, n_sent).tolist()
        ans_sent = int(rng.integers(0, n_sent))
        sent_lens[ans_sent] = l_ans = int(rng.integers(ans_lo, hi_t + 1))

        ans_len = int(rng.integers(1, min(2, l_ans - 3) + 1))
        key_len = int(rng.integers(3, min(5, l_ans - ans_len) + 1))
        key = [keys[i] for i in rng.choice(len(keys), size=key_len, replace=False).tolist()]
        answer = [values[i] for i in rng.choice(len(values), size=ans_len, replace=False).tolist()]
        wrong_pool = [v for v in values if v not in answer]

        sentences = []
        for si, length in enumerate(sent_lens):
            if si == ans_sent:
                block = key + answer
            elif rng.random() < cfg.distractor_rate:
                # a near-key ending in a wrong value
                draw = rng.random()
                if draw < FULL_KEY_DISTRACTOR_SHARE:
                    block = list(key)
                elif draw < FULL_KEY_DISTRACTOR_SHARE + SWAP_DISTRACTOR_SHARE:
                    block = [key[1], key[0]] + key[2:]
                else:
                    drop = int(rng.integers(0, key_len))
                    block = key[:drop] + key[drop + 1:]
                block.append(wrong_pool[int(rng.integers(0, len(wrong_pool)))])
                # short sentences keep the tail of the pattern
                block = block[-length:]
            else:
                block = []
            # pad the block to ``length`` tokens with filler on both sides
            slack = length - len(block)
            lead = int(rng.integers(0, slack + 1))
            fill = [fillers[i] for i in rng.integers(0, n_fill, slack).tolist()]
            sentences.append(" ".join(fill[:lead] + block + fill[lead:]))
        records.append({
            "id": f"syn-{seed}-{doc_i:05d}",
            "document": " . ".join(sentences),
            "question": " ".join(key),
            "answers": [" ".join(answer)],
        })
    return records


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
