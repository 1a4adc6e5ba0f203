"""False-positive removal: cut a predicted span out of the context.

The span is given in flattened token coordinates of the current context.
Sentence remnants on either side of the cut are merged into one sentence so
the sentence count stays meaningful for later narrowing; sentences emptied
by the cut disappear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, ExcisionEmptyError
from .text import TokenDoc


@dataclass
class Excision:
    """Record of one removal, in pre-excision flattened coordinates.

    before_len and after_len count the surviving tokens of the sentences the
    cut touched, so before_len + after_len + span length equals the touched
    region's token count.
    """
    start: int
    end: int
    removed_tokens: list[int]
    before_len: int
    after_len: int


def excise_span(ctx: TokenDoc, start: int, end: int) -> tuple[TokenDoc, Excision]:
    """Remove flattened token positions [start, end] from the context.

    Raises ExcisionEmptyError when the span covers every token. The episode
    engine never asks for that: it masks EXCISE wherever the answer span
    covers the whole context.
    """
    total = ctx.n_tokens
    if not 0 <= start <= end < total:
        raise ContractError(
            f"span ({start}, {end}) out of range for {total} tokens")
    if end - start + 1 >= total:
        raise ExcisionEmptyError("excising the span would empty the document")

    flat = list(zip(ctx.flat_tokens(), ctx.flat_char_ids(), ctx.flat_spans()))
    removed = [t for t, _, _ in flat[start:end + 1]]
    bounds = ctx.sentence_bounds()

    # sentences fully outside the cut survive untouched; the sentences the
    # cut touches leave remnants that merge into a single sentence
    sentences: list[list[int]] = []
    char_ids: list[list[list[int]]] = []
    spans: list[list[tuple[int, int]]] = []
    remnant: list[tuple[int, list[int], tuple[int, int]]] = []
    touched_any = False
    for (lo, hi) in bounds:
        if hi <= start or lo > end:
            if touched_any and remnant:
                _push(sentences, char_ids, spans, remnant)
                remnant = []
                touched_any = False
            _push(sentences, char_ids, spans, flat[lo:hi])
        else:
            touched_any = True
            remnant.extend(flat[lo:start] if lo < start else [])
            remnant.extend(flat[end + 1:hi] if hi > end + 1 else [])
    if remnant:
        _push(sentences, char_ids, spans, remnant)

    if not sentences:
        raise ExcisionEmptyError("excision left no sentences")
    touched = [(lo, hi) for lo, hi in bounds if not (hi <= start or lo > end)]
    region_lo, region_hi = touched[0][0], touched[-1][1]
    return (TokenDoc(sentences, char_ids, spans),
            Excision(start=start, end=end, removed_tokens=removed,
                     before_len=start - region_lo,
                     after_len=region_hi - (end + 1)))


def _push(sentences, char_ids, spans, items) -> None:
    if not items:
        return
    sentences.append([t for t, _, _ in items])
    char_ids.append([c for _, c, _ in items])
    spans.append([p for _, _, p in items])
