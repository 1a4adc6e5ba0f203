"""The cfqa benchmark: inputs, set-up, the three workloads, checks, metrics.

Every workload is one process with one client in a closed loop: the next
operation starts when the previous one has returned, until the run's time is
up. Inputs come from ``gen_synthetic`` and the workload seed only; the
package sees the generated records. See README.md for why each workload
exists and which layer numbers should move which end-to-end number.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cfqa.episode  # noqa: E402
import cfqa.train  # noqa: E402
from cfqa.checks import tiny_config  # noqa: E402
from cfqa.config import RunConfig  # noqa: E402
from cfqa.model import QaModel  # noqa: E402
from cfqa.synthetic import SyntheticConfig, gen_synthetic  # noqa: E402
from cfqa.text import Vocab, build_vocab, examples_from_records  # noqa: E402

from tracing import Tracer, episode_summary  # noqa: E402

WORKLOADS = ("train-short", "eval-short", "eval-long")
ACTIONS = ("answer", "select", "excise")
SETUP_MIN_REPS = 5      # setup_s is the median of at least this many set-ups
DISTRACTOR_RATE = 0.5


@dataclass(frozen=True)
class Scale:
    """Corpus shapes and sizes; ``PAPER`` is the benchmark, ``TINY`` the smoke test."""
    train_docs: int          # vocab source for every workload, train-short's data
    held_out_docs: int       # eval-short's pool
    long_docs: int           # eval-long's pool, cycled if a run outlasts it
    short_shape: tuple       # (sentences_per_doc, tokens_per_sentence)
    long_shape: tuple
    batch_size: int          # episodes per train-short update
    eval_chunk: int          # questions per eval-short evaluate() call
    setup_seconds: float     # set-ups repeat until this much time has passed
    make_config: Callable[[], RunConfig] = RunConfig


PAPER = Scale(train_docs=200, held_out_docs=400, long_docs=64,
              short_shape=((8, 12), (5, 9)), long_shape=((150, 200), (8, 14)),
              batch_size=4, eval_chunk=8, setup_seconds=6.0)
TINY = Scale(train_docs=16, held_out_docs=8, long_docs=3,
             short_shape=((3, 5), (5, 7)), long_shape=((20, 30), (5, 9)),
             batch_size=2, eval_chunk=4, setup_seconds=0.0,
             make_config=tiny_config)


@dataclass
class Setup:
    cfg: RunConfig
    vocab: Vocab
    model: QaModel
    examples: list          # the pool the workload draws its operations from
    corpus_sha256: str


@dataclass
class OpOutcome:
    """Checked result of one operation.

    ``attempted`` and ``failed`` count in the workload's unit: updates for
    train-short, questions for the eval workloads.
    """
    attempted: int
    failed: int
    episodes: int
    actions: Counter
    em_sum: float
    f1_sum: float


def _corpus(n_docs: int, shape: tuple, seed: int) -> list[dict]:
    cfg = SyntheticConfig(n_docs=n_docs, sentences_per_doc=shape[0],
                          tokens_per_sentence=shape[1],
                          distractor_rate=DISTRACTOR_RATE)
    return gen_synthetic(cfg, seed)


def set_up(workload: str, seed: int, scale: Scale) -> Setup:
    """Corpus, vocab, model and warm-up: everything before the timed loop.

    The vocab always comes from the short training corpus, as ``cfqa train``
    builds it from the training split. That corpus holds every word of the
    generator's pools, so the vocab size, and with it the seeded model
    initialisation, is the same under every workload seed.
    """
    train_seed, pool_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    cfg = scale.make_config()
    train_records = _corpus(scale.train_docs, scale.short_shape, train_seed)
    if workload == "train-short":
        pool_records = train_records
    elif workload == "eval-short":
        pool_records = _corpus(scale.held_out_docs, scale.short_shape, pool_seed)
    else:
        pool_records = _corpus(scale.long_docs, scale.long_shape, pool_seed)
    vocab = build_vocab(train_records, char_width=cfg.char_width)
    examples = examples_from_records(pool_records, vocab,
                                     max_doc_tokens=cfg.max_doc_tokens)
    model = QaModel(cfg, vocab)
    # warm-up: one greedy episode on a short document touches every module
    warm = examples_from_records(train_records[:1], vocab)[0]
    cfqa.episode.run_episode(model, warm, cfg, "eval")
    digest = hashlib.sha256()
    for rec in (train_records if pool_records is train_records
                else train_records + pool_records):
        digest.update(json.dumps(rec, sort_keys=True).encode("utf-8"))
    return Setup(cfg=cfg, vocab=vocab, model=model, examples=examples,
                 corpus_sha256=digest.hexdigest())


def _episode_ok(summary: dict) -> bool:
    """EM and F1 in [0, 1], and every answer or excision span inside its context."""
    return (0.0 <= summary["em"] <= 1.0 and 0.0 <= summary["f1"] <= 1.0
            and all(0 <= start <= end < ctx_tokens
                    for (start, end), ctx_tokens in summary["spans"]))


def _finite_params(model: QaModel) -> bool:
    return all(np.isfinite(p.data).all() for _, p in model.store.items())


@contextlib.contextmanager
def _recording_train_episodes(into: list):
    """Keep a summary of each episode ``train()`` runs, for the checks.

    ``train()`` returns only its loss record, so the name it calls at run
    time is wrapped for the one operation; the episode itself is untouched.
    """
    original = cfqa.train.run_episode

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        into.append(episode_summary(result))
        return result

    cfqa.train.run_episode = recorded
    try:
        yield
    finally:
        cfqa.train.run_episode = original


def _train_op(setup: Setup, scale: Scale, i: int):
    """One ``train()`` update on the next ``batch_size`` training examples.

    Every update starts from the freshly initialised model: left to learn,
    the policy drifted within a few updates towards answering at once or
    towards narrowing, depending on the seed, and the work per update
    swung 3x between seeds. Train-mode sampling draws from a stream keyed
    by the example id, so batch slot ``j`` is renamed ``slot-j``: every
    update then rolls the same dice on new documents and does about the
    same work, and the median does not shift with the number of updates
    a run fits in.
    """
    setup.model = QaModel(setup.cfg, setup.vocab)
    n = len(setup.examples)
    batch = [replace(setup.examples[(i * scale.batch_size + j) % n],
                     id=f"slot-{j}")
             for j in range(scale.batch_size)]
    op_cfg = setup.cfg.replace(batch_size=scale.batch_size, updates=1, eval_every=0)

    def run():
        episodes: list[dict] = []
        with _recording_train_episodes(episodes):
            record = cfqa.train.train(setup.model, batch, op_cfg)["history"][0]
        return record, episodes

    def check(out) -> OpOutcome:
        record, episodes = out
        losses = (record["loss_actor"], record["loss_critic"], record["loss_aux"])
        ok = (all(math.isfinite(v) for v in losses)
              and len(episodes) == scale.batch_size
              and all(_episode_ok(s) for s in episodes)
              and _finite_params(setup.model))
        return OpOutcome(attempted=1, failed=0 if ok else 1,
                         episodes=scale.batch_size,
                         actions=Counter(record["actions"]),
                         em_sum=sum(s["em"] for s in episodes),
                         f1_sum=sum(s["f1"] for s in episodes))
    return run, check, 1


def _eval_short_op(setup: Setup, scale: Scale, i: int):
    """One ``evaluate()`` call on the next ``eval_chunk`` held-out questions."""
    n = len(setup.examples)
    chunk = [setup.examples[(i * scale.eval_chunk + j) % n]
             for j in range(scale.eval_chunk)]

    def run():
        return cfqa.episode.evaluate(setup.model, chunk, setup.cfg)

    def check(out) -> OpOutcome:
        metrics, rows = out
        bad = 0
        actions = Counter()
        for row in rows:
            summary = {"em": row["em"], "f1": row["f1"],
                       "spans": [(s["span"], s["ctx_tokens"]) for s in row["steps"]
                                 if s["span"] is not None]}
            if not _episode_ok(summary):
                bad += 1
            actions.update(s["action"] for s in row["steps"])
        if not _episode_ok({"em": metrics.em, "f1": metrics.f1, "spans": []}):
            bad = len(rows)
        return OpOutcome(attempted=len(rows), failed=bad, episodes=len(rows),
                         actions=actions, em_sum=sum(r["em"] for r in rows),
                         f1_sum=sum(r["f1"] for r in rows))
    return run, check, len(chunk)


def _eval_long_op(setup: Setup, scale: Scale, i: int):
    """One greedy ``run_episode()`` on the next long document."""
    example = setup.examples[i % len(setup.examples)]

    def run():
        return cfqa.episode.run_episode(setup.model, example, setup.cfg, "eval")

    def check(result) -> OpOutcome:
        summary = episode_summary(result)
        ok = _episode_ok(summary)
        return OpOutcome(attempted=1, failed=0 if ok else 1, episodes=1,
                         actions=Counter(summary["actions"]),
                         em_sum=summary["em"], f1_sum=summary["f1"])
    return run, check, 1


OPS = {"train-short": _train_op, "eval-short": _eval_short_op,
       "eval-long": _eval_long_op}
OP_SPAN = {"train-short": "train.update", "eval-short": "eval.evaluate",
           "eval-long": "eval.question"}


def environment(setup: Setup) -> dict:
    """What must match for two result sets to have run the same setup."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "parameters": setup.model.store.n_values(),
        "vocab_words": setup.vocab.n_words,
        "corpus_sha256": setup.corpus_sha256,
        "config_hash": setup.cfg.hash(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = PAPER) -> dict:
    """Set up, run the closed loop for ``seconds``, check, and measure.

    At least one operation runs, so ``seconds=0`` runs exactly one.
    """
    if workload not in OPS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # a set-up lasts 0.3 s to 1.3 s, so one slow second on a shared machine
    # moves a few set-ups: repeating them over several seconds evens that out
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPS
           or sum(setup_times) < scale.setup_seconds):
        gc.collect()  # each set-up starts free of the previous one's garbage
        t0 = time.perf_counter()
        setup = set_up(workload, seed, scale)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    durations: list[float] = []
    outcomes: list[OpOutcome] = []
    attempted = failed = 0
    t_begin = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        i = 0
        while i == 0 or time.perf_counter() - t_begin < seconds:
            run, check, units = OPS[workload](setup, scale, i)
            i += 1
            t0 = time.perf_counter()
            try:
                with tracer.span(OP_SPAN[workload]) if tracer else contextlib.nullcontext():
                    out = run()
                dt = time.perf_counter() - t0
                outcome = check(out)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                attempted += units
                failed += units
                continue
            durations.append(dt)
            outcomes.append(outcome)
            attempted += outcome.attempted
            failed += outcome.failed
    timed_wall = time.perf_counter() - t_begin
    params_digest = hashlib.sha256(setup.model.store.state_bytes()).hexdigest()

    episodes = sum(o.episodes for o in outcomes)
    actions = sum((o.actions for o in outcomes), Counter())
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "env": environment(setup),
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "operations": len(durations),
        "durations_s": durations,
        "setup_times_s": setup_times,
        "final_params_sha256": params_digest,
        "episodes": episodes,
        "quality": {
            "em": sum(o.em_sum for o in outcomes) / max(episodes, 1),
            "f1": sum(o.f1_sum for o in outcomes) / max(episodes, 1),
            "actions": {a: actions.get(a, 0) for a in ACTIONS},
        },
        "metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "episodes_per_s": (episodes / sum(durations) if durations else 0.0, "1/s"),
            "update_p50_ms": (1000 * statistics.median(durations) if durations else 0.0, "ms"),
            "question_p50_ms": (1000 * statistics.median(
                d / o.episodes for d, o in zip(durations, outcomes))
                if durations else 0.0, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, workload, episodes,
                                         len(durations), timed_wall)
        result["spans"] = tracer.spans
    return result


def layer_metrics(tracer: Tracer, workload: str, episodes: int, ops: int,
                  timed_wall: float) -> dict:
    """Per-layer numbers: times and counts per episode, train numbers per update."""
    self_s = tracer.self_times()
    counts = tracer.counts
    ep = max(episodes, 1)

    def per_ep_ms(name):
        return 1000 * self_s.get(name, 0.0) / ep

    def per_up_ms(seconds):
        return 1000 * seconds / ops if workload == "train-short" and ops else 0.0

    steps = Counter(a for s in tracer.episodes for a in s["actions"])
    n_steps = sum(steps.values())
    answer_calls = counts["answer.calls"]
    # every answer step and every excise step consumes exactly one answer()
    # output; the pre-check call is wasted when the policy then selects or
    # answers afresh
    answers_used = steps["answer"] + steps["excise"]
    op_total = tracer.total(OP_SPAN[workload])
    backward = tracer.total("tensor.backward")
    step = tracer.total("params.step")
    em = [s["em"] for s in tracer.episodes]
    f1 = [s["f1"] for s in tracer.episodes]
    return {
        "controller.actor_ms": (per_ep_ms("controller.actor"), "ms/episode"),
        "controller.critic_ms": (per_ep_ms("controller.critic"), "ms/episode"),
        "controller.state_ms": (per_ep_ms("controller.state"), "ms/episode"),
        "controller.calls": (counts["controller.actor.calls"] / ep, "count/episode"),
        "controller.state_rows": (counts["controller.state_rows"] / ep, "count/episode"),
        "tensor.backward_ms": (per_up_ms(backward), "ms/update"),
        "tensor.tape_nodes": (tracer.tape_nodes[0] if tracer.tape_nodes else 0, "count/update"),
        "params.step_ms": (per_up_ms(step), "ms/update"),
        "train.rollout_ms": (per_up_ms(op_total - backward - step), "ms/update"),
        "encoder.ms": (per_ep_ms("encoder"), "ms/episode"),
        "encoder.calls": (counts["encoder.calls"] / ep, "count/episode"),
        "encoder.tokens": (counts["encoder.tokens"] / ep, "count/episode"),
        "selector.ms": (per_ep_ms("selector"), "ms/episode"),
        "selector.calls": (counts["selector.calls"] / ep, "count/episode"),
        "selector.sentences": (counts["selector.sentences"] / ep, "count/episode"),
        "answer.ms": (per_ep_ms("answer"), "ms/episode"),
        "answer.calls": (answer_calls / ep, "count/episode"),
        "answer.useful_ratio": (answers_used / answer_calls if answer_calls else 0.0, "ratio"),
        "subcontext.ms": (per_ep_ms("subcontext"), "ms/episode"),
        "subcontext.calls": (counts["subcontext.calls"] / ep, "count/episode"),
        "episode.self_ms": (per_ep_ms("episode"), "ms/episode"),
        "episode.steps": (n_steps / ep, "count/episode"),
        "episode.p_answer": (steps["answer"] / n_steps if n_steps else 0.0, "ratio"),
        "episode.p_select": (steps["select"] / n_steps if n_steps else 0.0, "ratio"),
        "episode.p_excise": (steps["excise"] / n_steps if n_steps else 0.0, "ratio"),
        "episode.f1": (statistics.fmean(f1) if f1 else 0.0, "ratio"),
        "episode.em": (statistics.fmean(em) if em else 0.0, "ratio"),
        "loop.self_ms": (per_ep_ms(OP_SPAN[workload]), "ms/episode"),
        "trace.coverage_ratio": (op_total / timed_wall, "ratio"),
        "trace.overhead_ratio": (tracer.overhead_s / timed_wall, "ratio"),
    }
