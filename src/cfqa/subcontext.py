"""False-positive removal: cut a predicted span out of the context.

The span is given in flattened token coordinates of the current context.
The sentences before and after the span stay as they are; the remnants of
the sentences the cut touches become one sentence, so the sentence count
stays meaningful for later narrowing, and a sentence the cut empties
disappears.
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
    index = [*range(start), *range(end + 1, total)]
    bounds = ctx.sentence_bounds()
    before = [hi - lo for lo, hi in bounds if hi <= start]
    after = [hi - lo for lo, hi in bounds if lo > end]
    remnant = len(index) - sum(before) - sum(after)
    return ctx.take(index, before + ([remnant] if remnant else []) + after)
