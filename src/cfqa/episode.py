"""The decision loop: state, action, module dispatch, next state.

An episode walks a question-document pair through up to ``step_cap`` free
action choices; answering ends it, narrowing and excision shrink the
context and continue. If no answer was produced within the cap, every other
action is masked and the answer is forced. Only the answer is rewarded:
the episode's one reward is the F1 of the answer it ends with.

The step loop is a generator (``episode_steps``) that hands out each state
and waits for the actor's action probabilities for it. One driver plays it:
``run_lockstep`` keeps up to ``batch_size`` episodes in flight and reads
all their pending states with one packed actor call per round;
``run_episode`` is that driver over one example. Acting needs only those
probabilities, so the driver reads the actor with no tape and never runs
the critic; a state with one legal action is not read at all, since the
masked softmax is exactly that action. Each step sets its reward where it
runs (the answer's F1, 0 for a SELECT or an EXCISE) and leaves one
``StepRecord``: the action it ran, what that did to the context, and what
learning needs. ``train()`` reads every state of a batch again, in one
recorded actor and one recorded critic pass, and computes the actor-critic
loss over those rows; ``evaluate`` logs each record's ``log_line``. Every
episode checks its invariants as it runs: the context never grows, the
question encoding stays the same, and the episode answers exactly once, at
the end, forced only by the step cap.

The document is embedded and projected once per episode. A narrowed
context is a subset of the document's tokens (``TokenDoc.take`` builds it)
and carries their ``positions`` in it, so its encoding gathers those
projected rows from the first step's encoding; only the positional
encodings, the convolution and the rows read from the block run per step.
Likewise, after a SELECT the narrowed context's sentence scores are the
kept entries of the scores that SELECT read; after an EXCISE, whose merged
sentence is new, the context is scored again.

In train mode the modules learn from ``aux_losses``, whatever the policy
picks: the first step scores the document's sentences and adds the gold
sentence's NLL (a SELECT there acts on those scores), and an answer adds
the gold span's NLL when its context holds one. Eval adds no loss.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .config import RunConfig
from .controller import ActionId
from .answer import span_nll
from .errors import ContractError, DataError
from .metrics import best_f1, exact_match
from .selector import SentenceDist, kept_dist, select_top_k
from .subcontext import excise_span
from .tensor import Tensor, pick, log_softmax, suspend_tape
from . import tensor as T
from .text import QAExample, TokenDoc, find_subsequence


@dataclass
class StepRecord:
    """One step of an episode, as the policy saw it and as it ran.

    ``action`` is what the policy picked, by its ``ActionId`` name in lower
    case, and the step did just that: an answer ends the episode, a select
    or an excise shrinks the context of ``ctx_tokens`` tokens. ``reward`` is
    the answer's F1 on the answer step and 0 on every other. ``span`` is the
    answered or excised span and, on a SELECT step, ``kept`` the sorted
    indices of the sentences it kept. ``probs`` are the [3] actor
    probabilities the action was drawn from and ``mask`` the legal actions.
    ``state`` is the controller input, which only the update reads: it is
    None in eval and never logged.
    """
    action: str
    ctx_tokens: int
    reward: float
    span: Optional[tuple[int, int]] = None
    kept: Optional[list[int]] = None
    probs: Optional[np.ndarray] = None
    mask: Optional[np.ndarray] = None
    state: Optional[Tensor] = None

    def log_line(self) -> dict:
        """The step as the trajectory log holds it."""
        return {"action": self.action, "ctx_tokens": self.ctx_tokens,
                "reward": self.reward, "span": self.span, "kept": self.kept,
                "probs": self.probs.tolist(), "mask": self.mask.tolist()}


@dataclass
class EpisodeResult:
    steps: list[StepRecord]
    forced: bool            # the step cap forced the answer
    em: int
    f1: float
    aux_losses: list[Tensor] = field(default_factory=list)


@dataclass
class RunMetrics:
    em: float
    f1: float
    action_props: tuple[float, float, float]
    avg_steps: float

    def to_dict(self) -> dict:
        return {"em": self.em, "f1": self.f1,
                "p_answer": self.action_props[0],
                "p_select": self.action_props[1],
                "p_excise": self.action_props[2],
                "avg_steps": self.avg_steps}


def episode_rng(run_seed: int, example_id: str, pass_index: int = 0) -> np.random.Generator:
    """Deterministic per-episode stream derived from (run seed, example id)."""
    key = zlib.crc32(example_id.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=run_seed, spawn_key=(key, pass_index)))


def _gold_span_in(ctx: TokenDoc, golds: list[list[int]]) -> Optional[tuple[int, int]]:
    flat = ctx.flat_tokens()
    for gold in golds:
        start = find_subsequence(flat, gold)
        if start is not None:
            return start, start + len(gold) - 1
    return None


def _gold_sentence_nll(dist: SentenceDist, ctx: TokenDoc,
                       golds: list[list[int]]) -> Optional[Tensor]:
    """The selector's loss on ``ctx``, which ``dist`` scores: the NLL of the
    first sentence that holds a gold answer, or None when none does."""
    for i, sent in enumerate(ctx.sentences):
        for gold in golds:
            if find_subsequence(sent, gold) is not None:
                return T.mul(pick(log_softmax(dist.logits, axis=0), i), -1.0)
    return None


def action_mask(ctx: TokenDoc, forced: bool,
                covers_all_span: Optional[bool]) -> np.ndarray:
    """Availability of (answer, select, excise) in the current state."""
    mask = np.ones(3, dtype=bool)
    if forced:
        mask[ActionId.SELECT] = False
        mask[ActionId.EXCISE] = False
        return mask
    if ctx.n_sentences <= 1:
        mask[ActionId.SELECT] = False
    if ctx.n_tokens <= 1 or covers_all_span:
        mask[ActionId.EXCISE] = False
    return mask


def run_episode(model, example: QAExample, cfg: RunConfig, mode: str,
                rng: Optional[np.random.Generator] = None) -> EpisodeResult:
    """Play one episode (``run_lockstep`` over ``[example]``); in train mode
    the policy samples from ``rng``, in eval it argmaxes."""
    return run_lockstep(model, [example], cfg, mode, [rng])[0]


def _one_legal_action(mask: np.ndarray) -> Optional[np.ndarray]:
    """The action probabilities of a state with one legal action, one-hot as
    the masked softmax gives them, so the actor need not read it; None when
    the state has a choice."""
    return mask.astype(T.default_dtype()) if mask.sum() == 1 else None


def episode_steps(model, example: QAExample, cfg: RunConfig, mode: str,
                  rng: Optional[np.random.Generator] = None):
    """The step loop of one episode, as a generator.

    Before each decision it yields ``(state, action_mask)`` and expects the
    actor's [3] action probabilities for that state, as an array, to be sent
    back. It returns the ``EpisodeResult``, and raises ``ContractError``
    when the episode breaks an invariant, a gather of the wrong tokens
    included.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be train or eval, got {mode!r}")
    train = mode == "train"
    if train and rng is None:
        raise ContractError("train mode needs an rng for action sampling")

    q_enc = model.encode_question(example)
    q_bytes = q_enc.matrix.data.tobytes()
    # positions count from the episode's document, whatever the given one
    # carries
    ctx = replace(example.doc, positions=None)
    doc_enc = None      # the first step's encoding, which later steps gather from
    doc_tokens = np.asarray(ctx.flat_tokens(), dtype=np.int64)
    narrowed_from = None   # after a SELECT: its distribution and kept sentences
    k_budget = cfg.k_initial
    steps: list[StepRecord] = []
    aux: list[Tensor] = []
    prev_token_count = ctx.n_tokens
    answer_tokens: list[int] = []
    forced_answer = False

    for step in range(cfg.step_cap + 1):
        forced = step == cfg.step_cap
        if ctx.n_tokens > prev_token_count:
            raise ContractError("context grew between steps")
        if q_enc.matrix.data.tobytes() != q_bytes:
            raise ContractError("question encoding changed during episode")
        prev_token_count = ctx.n_tokens

        if doc_enc is None:
            ctx_enc = doc_enc = model.encode_doc(ctx)
        else:
            if not np.array_equal(doc_tokens[ctx.positions], ctx.flat_tokens()):
                raise ContractError("the rows gathered for the context hold "
                                    "other tokens than the context")
            ctx_enc = model.encode_doc(ctx, doc_enc)

        state = model.state(ctx_enc, q_enc)
        dist = None     # the context's sentence distribution, once read
        if train and step == 0:
            # the selector learns on every training document, whatever the
            # policy picks
            dist = model.sentence_dist(q_enc, ctx, ctx_enc)
            sel_nll = _gold_sentence_nll(dist, ctx, example.gold_answers)
            if sel_nll is not None:
                aux.append(sel_nll)
        # cheap pre-check: a span that would cover the whole context makes
        # excision illegal, so mask it before the policy decides. Under a
        # tape it is recorded like any forward pass, so an answer at this
        # step is this output, span loss included
        cached = None
        covers_all = False
        if not forced and 1 < ctx.n_tokens <= cfg.max_span_len:
            cached = model.answer(q_enc, ctx_enc)
            covers_all = (cached.span.start == 0
                          and cached.span.end == ctx.n_tokens - 1)

        mask = action_mask(ctx, forced, covers_all)
        probs = yield state, mask
        if not train:
            # only the update reads a state again: an eval result keeps no
            # [rows x d_model] copy per step
            state = None

        if train:
            action = ActionId(int(rng.choice(3, p=_renorm(probs))))
        else:
            action = ActionId(int(np.argmax(probs)))

        span = kept = None
        if action is ActionId.ANSWER:
            out = model.answer(q_enc, ctx_enc) if cached is None else cached
            span = (out.span.start, out.span.end)
            answer_tokens = ctx.flat_tokens()[span[0]:span[1] + 1]
            reward = float(best_f1(answer_tokens, example.gold_answers))
            if train:
                gold_span = _gold_span_in(ctx, example.gold_answers)
                if gold_span is not None:
                    aux.append(span_nll(out, gold_span[0], gold_span[1]))
        elif action is ActionId.SELECT:
            if dist is None:
                dist = (model.sentence_dist(q_enc, ctx, ctx_enc) if narrowed_from is None
                        else kept_dist(*narrowed_from))
            new_ctx, kept = select_top_k(dist, ctx, k_budget)
            narrowed_from = dist, kept
            k_budget = max(1, k_budget - 1)
            reward = 0.0
        else:
            # excise: produce a span on the current context and cut it out.
            # Spans are at most max_span_len tokens, so only a context that
            # short can be covered whole, and the pre-check masked that case.
            # Nothing learns from this span, and the context is dropped when
            # the step ends, so a longer context is read with no tape
            if cached is None:
                with suspend_tape():
                    cached = model.answer(q_enc, ctx_enc)
            span = (cached.span.start, cached.span.end)
            new_ctx = excise_span(ctx, *span)
            reward = 0.0
            narrowed_from = None

        rec = StepRecord(action.name.lower(), ctx.n_tokens, reward, span)
        rec.kept, rec.probs, rec.mask, rec.state = kept, probs, mask, state
        steps.append(rec)
        if action is ActionId.ANSWER:
            forced_answer = forced
            break
        ctx = new_ctx

    em = exact_match(answer_tokens, example.gold_answers)
    f1 = best_f1(answer_tokens, example.gold_answers) if answer_tokens else 0.0
    result = EpisodeResult(steps=steps, forced=forced_answer, em=em, f1=f1,
                           aux_losses=aux)
    _check_episode(result, cfg)
    return result


def _renorm(p: np.ndarray) -> np.ndarray:
    # float32 probabilities do not always sum to exactly 1 for rng.choice
    p = p.astype(np.float64)
    return p / p.sum()


def _check_episode(result: EpisodeResult, cfg: RunConfig) -> None:
    n_steps = len(result.steps)
    if n_steps > cfg.step_cap + 1:
        raise ContractError(f"episode ran {n_steps} steps")
    actions = [rec.action for rec in result.steps]
    if actions.count("answer") != 1 or actions[-1] != "answer":
        raise ContractError("episodes must answer exactly once, at the end")
    if result.forced != (n_steps == cfg.step_cap + 1):
        raise ContractError("only the step cap may force an answer")


def run_lockstep(model, dataset: list[QAExample], cfg: RunConfig, mode: str,
                 rngs: Optional[list] = None) -> list[EpisodeResult]:
    """Episodes over ``dataset``, up to ``cfg.batch_size`` in flight. In
    train mode episode i samples its actions from ``rngs[i]``; in eval each
    argmaxes and ``rngs`` may be left out.

    Each round packs the pending states of the episodes in flight back to
    back and reads them with one ``model.policy`` call under
    ``suspend_tape``, so the actor GRU steps all of them together; the
    critic does not run, and a state with one legal action is not read.
    Acting changes no weight, so the whole run is one ``fixed_weights``
    block: the actor GRU's weight transposes are made once for all rounds,
    and the weights are read-only until the run returns. An
    episode that finishes frees its slot for the next example. Each episode
    gets its own row of the probabilities as a plain array. Results come
    back in dataset order.
    """
    if rngs is None:
        rngs = [None] * len(dataset)
    if len(rngs) != len(dataset):
        raise ContractError(f"{len(rngs)} rngs for {len(dataset)} episodes")
    results: list[Optional[EpisodeResult]] = [None] * len(dataset)
    queue = iter(enumerate(zip(dataset, rngs)))
    in_flight = []     # (dataset index, generator, its pending (state, mask))
    with T.fixed_weights():
        while True:
            for index, (example, rng) in itertools.islice(
                    queue, cfg.batch_size - len(in_flight)):
                steps = episode_steps(model, example, cfg, mode, rng)
                in_flight.append((index, steps, next(steps)))
            if not in_flight:
                return results
            probs = [_one_legal_action(pending[1]) for _, _, pending in in_flight]
            read = [row for row, p in enumerate(probs) if p is None]
            if read:
                states = [in_flight[row][2][0] for row in read]
                masks = np.stack([in_flight[row][2][1] for row in read])
                with suspend_tape():
                    out, _ = model.policy(T.concat(states, axis=0), masks,
                                          [state.data.shape[0] for state in states])
                for row, p in zip(read, out.data):
                    probs[row] = p
            still = []
            for row, (index, steps, _) in enumerate(in_flight):
                try:
                    still.append((index, steps, steps.send(probs[row])))
                except StopIteration as done:
                    results[index] = done.value
            in_flight = still


def evaluate(model, dataset: list[QAExample], cfg: RunConfig
             ) -> tuple[RunMetrics, list[dict]]:
    """Greedy-policy metrics over a dataset, plus per-example records.

    Episodes play in lockstep, ``cfg.batch_size`` at a time (``run_lockstep``).
    Each is independent of the others and read-only over the parameters, so
    a record depends neither on where its example sits in the dataset nor on
    the lockstep width. Each of a record's ``steps`` is the step's
    ``StepRecord.log_line``: what the step did, and what the policy saw
    (``probs``, the [3] action probabilities it acted on, and ``mask``, the
    legal actions).
    """
    if not dataset:
        raise DataError("cannot evaluate an empty dataset")
    results = run_lockstep(model, dataset, cfg, "eval")
    rows = []
    action_counts = np.zeros(3, dtype=np.int64)
    total_steps = 0
    em_sum = 0
    f1_sum = 0.0
    for example, result in zip(dataset, results):
        em_sum += result.em
        f1_sum += result.f1
        total_steps += len(result.steps)
        for rec in result.steps:
            action_counts[ActionId[rec.action.upper()]] += 1
        rows.append({
            "id": example.id,
            "em": result.em,
            "f1": result.f1,
            "n_steps": len(result.steps),
            "actions": "|".join(rec.action for rec in result.steps),
            "steps": [rec.log_line() for rec in result.steps],
        })
    n = len(dataset)
    props = action_counts / max(1, action_counts.sum())
    metrics = RunMetrics(em=em_sum / n, f1=f1_sum / n,
                         action_props=(float(props[0]), float(props[1]),
                                       float(props[2])),
                         avg_steps=total_steps / n)
    return metrics, rows
