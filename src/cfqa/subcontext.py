"""False-positive removal: cut a predicted span out of the context.

The span is given in flattened token coordinates of the current context.
Sentence remnants on either side of the cut are merged into one sentence so
the sentence count stays meaningful for later narrowing; sentences emptied
by the cut disappear.
"""

from __future__ import annotations

from .errors import ContractError, ExcisionEmptyError
from .text import TokenDoc


def excise_span(ctx: TokenDoc, start: int, end: int) -> TokenDoc:
    """Remove flattened token positions [start, end] from the context.

    The other tokens keep their order and their ``positions``. Raises
    ExcisionEmptyError when the span covers every token. The episode engine
    never asks for that: it masks EXCISE wherever the answer span covers the
    whole context.
    """
    total = ctx.n_tokens
    if not 0 <= start <= end < total:
        raise ContractError(
            f"span ({start}, {end}) out of range for {total} tokens")
    if end - start + 1 >= total:
        raise ExcisionEmptyError("excising the span would empty the document")

    flat = list(zip(ctx.flat_tokens(), ctx.flat_char_ids()))

    # sentences fully outside the cut survive untouched; the sentences the
    # cut touches leave remnants that merge into a single sentence
    sentences: list[list[int]] = []
    char_ids: list[list[list[int]]] = []
    remnant: list[tuple[int, list[int]]] = []
    touched_any = False
    for (lo, hi) in ctx.sentence_bounds():
        if hi <= start or lo > end:
            if touched_any and remnant:
                _push(sentences, char_ids, remnant)
                remnant = []
                touched_any = False
            _push(sentences, char_ids, flat[lo:hi])
        else:
            touched_any = True
            remnant.extend(flat[lo:start] if lo < start else [])
            remnant.extend(flat[end + 1:hi] if hi > end + 1 else [])
    if remnant:
        _push(sentences, char_ids, remnant)

    if not sentences:
        raise ExcisionEmptyError("excision left no sentences")
    return TokenDoc(sentences, char_ids,
                    ctx.positions[:start] + ctx.positions[end + 1:])


def _push(sentences, char_ids, items) -> None:
    if not items:
        return
    sentences.append([t for t, _ in items])
    char_ids.append([c for _, c in items])
