"""Spans around the calls into each cfqa layer, for the traced benchmark run.

The tracer patches public functions from outside the package, only for the
lifetime of a ``Tracer.installed()`` block, so the untraced run executes the
package unmodified. Spans live in memory as ``[name, start, end, parent]``
rows and are written out once, when the run ends. A layer's self time is its
span durations minus the time its child spans cover. The time each wrapper
spends outside its own span (opening and closing it, counting the work) is
summed as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable

import cfqa.episode
import cfqa.train
from cfqa.model import QaModel
from cfqa.params import ParamStore
from cfqa.tensor import Tape

# (owner, attribute, span name). The episode engine and the train loop look
# these names up at call time, so patching the module attribute reaches them.
PATCH_POINTS = (
    (QaModel, "encode_doc", "encoder"),
    (QaModel, "encode_question", "encoder"),
    (QaModel, "sentence_dist", "selector"),
    (QaModel, "answer", "answer"),
    (QaModel, "state", "controller.state"),
    (QaModel, "policy", "controller.actor"),
    (QaModel, "value", "controller.critic"),
    (Tape, "backward", "tensor.backward"),
    (ParamStore, "apply_gradients", "params.step"),
    (cfqa.episode, "excise_span", "subcontext"),
    (cfqa.episode, "select_top_k", "subcontext"),
    (cfqa.episode, "run_episode", "episode"),
    (cfqa.train, "run_episode", "episode"),
)


def _count_work(tracer: "Tracer", name: str, args: tuple, out) -> None:
    """Work done by one call, counted where the call happens."""
    counts = tracer.counts
    if name == "encoder":
        # encode_doc(self, doc) / encode_question(self, example)
        target = args[1]
        n = target.n_tokens if hasattr(target, "n_tokens") else len(target.question)
        counts["encoder.tokens"] += n
    elif name == "selector":
        counts["selector.sentences"] += args[2].n_sentences
    elif name == "controller.actor":
        counts["controller.state_rows"] += args[1].data.shape[0]
    elif name == "tensor.backward":
        tracer.tape_nodes.append(len(args[0].nodes))
    elif name == "episode":
        # keep a summary only: a train-mode result holds the live tape graph
        tracer.episodes.append(episode_summary(out))


class Tracer:
    """Span recorder with call counts; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.episodes: list = []
        self.tape_nodes: list[int] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self.counts[name + ".calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _count_work(self, name, args, out)
            _, start, end, _ = self.spans[idx]
            self.overhead_s += time.perf_counter() - entered - (end - start)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every PATCH_POINTS entry; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in PATCH_POINTS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def episode_summary(result) -> dict:
    """What the benchmark checks and counts from one EpisodeResult."""
    return {"actions": [rec.action for rec in result.steps],
            "spans": [(rec.span, rec.ctx_tokens) for rec in result.steps
                      if rec.span is not None],
            "em": result.em, "f1": result.f1}
