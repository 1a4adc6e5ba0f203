"""Tokenization, vocabularies and JSONL dataset I/O.

The tokenizer is a deliberately plain heuristic (lowercase, sentence split
on terminal punctuation, whitespace/punctuation word split) and is isolated
behind this module so it can be swapped without touching the models.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import ContractError, DataError

PAD_ID = 0
UNK_ID = 1
SEP_ID = 2

_SENT_SPLIT = re.compile(r"[.!?]+(?:\s+|$)")
_WORD_SPLIT = re.compile(r"[a-z0-9_']+|[^\sa-z0-9_']")


def _sentence_words(text: str) -> list[list[str]]:
    """The word tokens of each sentence of ``text`` that has any, lowercased."""
    return [words for chunk in _SENT_SPLIT.split(text.lower())
            if (words := _WORD_SPLIT.findall(chunk))]


def split_sentences(text: str) -> list[list[str]]:
    """Lowercase and split into sentences of word tokens."""
    if not text or not text.strip():
        raise DataError("cannot tokenize empty or whitespace-only text")
    sentences = _sentence_words(text)
    if not sentences:
        raise DataError(f"no tokens found in text {text!r}")
    return sentences


def split_words(text: str) -> list[str]:
    """Single-sequence variant used for questions and answers."""
    return [w for sent in split_sentences(text) for w in sent]


class Vocab:
    """Word and character index spaces with reserved ids.

    Words reserve PAD=0, UNK=1, SEP=2; characters reserve PAD=0, UNK=1.
    Non-reserved ids are contiguous and bijective with their strings.
    """

    WORD_RESERVED = ("<pad>", "<unk>", "<sep>")
    CHAR_RESERVED = ("<pad>", "<unk>")

    def __init__(self, words: Iterable[str], chars: Iterable[str], char_width: int = 16):
        self.words = list(self.WORD_RESERVED)
        self.word_to_id: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        for w in words:
            if w not in self.word_to_id:
                self.word_to_id[w] = len(self.words)
                self.words.append(w)
        self.chars = list(self.CHAR_RESERVED)
        self.char_to_id: dict[str, int] = {c: i for i, c in enumerate(self.chars)}
        for c in chars:
            if c not in self.char_to_id:
                self.char_to_id[c] = len(self.chars)
                self.chars.append(c)
        self.char_width = char_width
        self._encoded: dict[str, tuple[int, tuple[int, ...]]] = {}

    @classmethod
    def build(cls, token_lists: Iterable[list[str]], char_width: int = 16) -> "Vocab":
        """Words and chars in order of first occurrence (a char first occurs
        in some word's first occurrence, so distinct words give the same ids)."""
        words = dict.fromkeys(w for tokens in token_lists for w in tokens)
        return cls(words, (c for w in words for c in w), char_width=char_width)

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_chars(self) -> int:
        return len(self.chars)

    def word_id(self, w: str) -> int:
        return self.word_to_id.get(w, UNK_ID)

    def word(self, i: int) -> str:
        return self.words[i]

    def char_ids(self, w: str) -> tuple[int, ...]:
        """``w``'s char ids, cut or PAD-filled to ``char_width``: one
        memoized tuple per distinct word, shared by every token of it and
        immutable, so no holder can change another's row."""
        return (self._encoded.get(w) or self._encode(w))[1]

    def _encode(self, w: str) -> tuple[int, tuple[int, ...]]:
        ids = [self.char_to_id.get(c, UNK_ID) for c in w[: self.char_width]]
        ids.extend([PAD_ID] * (self.char_width - len(ids)))
        self._encoded[w] = entry = (self.word_id(w), tuple(ids))
        return entry

    def encode_words(self, words: list[str]) -> tuple[list[int], list[tuple[int, ...]]]:
        """The word ids of ``words`` and their char-id rows, each row the
        word's one shared tuple from ``char_ids``: one memo lookup per token."""
        encoded = self._encoded
        entries = [encoded.get(w) or self._encode(w) for w in words]
        return [e[0] for e in entries], [e[1] for e in entries]

    def digest(self) -> str:
        """Digest of both id spaces and the char width: vocabs with one
        digest give every word and every char the same id."""
        payload = json.dumps([self.words, self.chars, self.char_width])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class TokenDoc:
    """A document as sentences of token ids, with provenance.

    ``positions`` holds each token's flat position in the document an
    episode started from, 0..n-1 unless given. Every narrowed document
    (top-K sentences, an excision, a truncation) is built by ``take``, which
    carries it, so a narrowed context's encoding gathers those rows of the
    document's.
    """

    sentences: list[list[int]]
    char_ids: list[list[tuple[int, ...]]]     # one shared row per word
    positions: Optional[list[int]] = None

    def __post_init__(self):
        if not self.sentences or any(not s for s in self.sentences):
            raise DataError("a document needs at least one non-empty sentence")
        if self.positions is None:
            self.positions = list(range(self.n_tokens))
        elif len(self.positions) != self.n_tokens:
            raise ContractError(f"{len(self.positions)} positions for a "
                                f"document of {self.n_tokens} tokens")

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def flat_tokens(self) -> list[int]:
        return [t for s in self.sentences for t in s]

    def flat_char_ids(self) -> list[tuple[int, ...]]:
        return [c for s in self.char_ids for c in s]

    def sentence_bounds(self) -> list[tuple[int, int]]:
        """Half-open [start, stop) token offsets of each sentence."""
        bounds = []
        pos = 0
        for s in self.sentences:
            bounds.append((pos, pos + len(s)))
            pos += len(s)
        return bounds

    def take(self, index, lengths: list[int]) -> "TokenDoc":
        """The tokens at flat offsets ``index``, in that order, cut into
        sentences of ``lengths`` tokens; each token keeps its ``positions``
        entry and its char-id row, the same object."""
        tokens, chars = self.flat_tokens(), self.flat_char_ids()
        sentences, char_ids = [], []
        stop = 0
        for n in lengths:
            part = index[stop:stop + n]
            sentences.append([tokens[i] for i in part])
            char_ids.append([chars[i] for i in part])
            stop += n
        return TokenDoc(sentences, char_ids, [self.positions[i] for i in index])

    @classmethod
    def from_words(cls, sentences: list[list[str]], vocab: Vocab) -> "TokenDoc":
        ids, chars = [], []
        for words in sentences:
            w_ids, c_ids = vocab.encode_words(words)
            ids.append(w_ids)
            chars.append(c_ids)
        return cls(ids, chars)


def tokenize(text: str, vocab: Vocab) -> TokenDoc:
    return TokenDoc.from_words(split_sentences(text), vocab)


def detokenize(doc: TokenDoc, vocab: Vocab) -> str:
    return " . ".join(" ".join(vocab.word(t) for t in s) for s in doc.sentences)


def truncate_doc(doc: TokenDoc, max_tokens: int) -> TokenDoc:
    """Drop trailing tokens past ``max_tokens``, keeping sentence structure."""
    if max_tokens <= 0 or doc.n_tokens <= max_tokens:
        return doc
    lengths = []
    left = max_tokens
    for s in doc.sentences:
        if left <= 0:
            break
        lengths.append(min(left, len(s)))
        left -= lengths[-1]
    return doc.take(range(max_tokens), lengths)


@dataclass
class QAExample:
    id: str
    doc: TokenDoc
    question: list[int]
    question_chars: list[tuple[int, ...]]     # one shared row per word
    gold_answers: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.gold_answers or any(not a for a in self.gold_answers):
            raise DataError(f"example {self.id!r}: gold answers must be non-empty")


_REQUIRED_FIELDS = ("id", "document", "question", "answers")


def _is_text(value) -> bool:
    """Whether ``value`` is a string the tokenizer finds a word token in."""
    return isinstance(value, str) and bool(_sentence_words(value))


def read_jsonl(path) -> list[dict]:
    """The records of a JSONL dataset, one object per non-blank line, each
    with an ``id``, ``document`` and ``question`` strings, and ``answers``,
    a non-empty list of strings; every string holds a word token (``"..."``
    holds none). A line that breaks this raises ``DataError`` naming the
    file, the line and the field.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{where}: invalid JSON ({e.msg})") from e
            if not isinstance(obj, dict):
                raise DataError(f"{where}: expected a JSON object")
            for fname in _REQUIRED_FIELDS:
                if fname not in obj:
                    raise DataError(f"{where}: missing field {fname!r}")
            for fname in ("document", "question"):
                if not _is_text(obj[fname]):
                    raise DataError(f"{where}: {fname} must be a string with a "
                                    f"word token, got {obj[fname]!r:.60}")
            answers = obj["answers"]
            if not (isinstance(answers, list) and answers and all(map(_is_text, answers))):
                raise DataError(f"{where}: answers must be a non-empty list of "
                                f"strings with a word token each, got {answers!r:.60}")
            records.append(obj)
    return records


def build_vocab(records: list[dict], char_width: int = 16) -> Vocab:
    """Vocabulary over the documents and questions of a training split."""
    def token_streams():
        for rec in records:
            for sent in split_sentences(rec["document"]):
                yield sent
            yield split_words(rec["question"])
    return Vocab.build(token_streams(), char_width=char_width)


def examples_from_records(records: list[dict], vocab: Vocab,
                          max_doc_tokens: int = 0) -> list[QAExample]:
    examples = []
    for rec in records:
        doc = tokenize(rec["document"], vocab)
        if max_doc_tokens:
            doc = truncate_doc(doc, max_doc_tokens)
        q_ids, q_chars = vocab.encode_words(split_words(rec["question"]))
        answers = [vocab.encode_words(split_words(a))[0] for a in rec["answers"]]
        examples.append(QAExample(str(rec["id"]), doc, q_ids, q_chars, answers))
    return examples


def save_vocab(path, vocab: Vocab) -> None:
    payload = {"words": vocab.words[len(Vocab.WORD_RESERVED):],
               "chars": vocab.chars[len(Vocab.CHAR_RESERVED):],
               "char_width": vocab.char_width}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_vocab(path) -> Vocab:
    """The vocabulary ``save_vocab`` wrote; a malformed file raises ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as e:      # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: vocab file is not JSON ({e})") from e
    if not (isinstance(payload, dict)
            and all(isinstance(payload.get(key), list)
                    and all(isinstance(x, str) for x in payload[key])
                    for key in ("words", "chars"))
            and type(payload.get("char_width")) is int
            and payload["char_width"] >= 1):
        raise DataError(f"{path}: a vocab file needs lists of strings 'words' "
                        "and 'chars' and a positive integer 'char_width'")
    return Vocab(payload["words"], payload["chars"],
                 char_width=payload["char_width"])


def load_glove(path, vocab: Vocab, dim: int = 300) -> np.ndarray:
    """Read word vectors in the common text format (token then floats).

    Returns a [n_words x dim] matrix; words absent from the file keep
    zero rows. Reserved ids stay zero. Lines of another width are skipped;
    a file with no line of ``dim`` values raises ``DataError``, since its
    vectors have another width and the table would be all zeros.
    """
    table = np.zeros((vocab.n_words, dim), dtype=np.float32)
    matched = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                continue
            matched = True
            idx = vocab.word_to_id.get(parts[0])
            if idx is not None and idx >= len(Vocab.WORD_RESERVED):
                table[idx] = np.asarray(parts[1:], dtype=np.float32)
    if not matched:
        raise DataError(f"{path}: no line holds a word and dim={dim} values")
    return table


def find_subsequence(haystack: list[int], needle: list[int]) -> Optional[int]:
    """Index of the first occurrence of ``needle`` as a contiguous run."""
    if not needle or len(needle) > len(haystack):
        return None
    first = needle[0]
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i] == first and haystack[i:i + len(needle)] == needle:
            return i
    return None
