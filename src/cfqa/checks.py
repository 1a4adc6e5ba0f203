"""Self-contained oracle suite behind the ``check`` command.

Every check pits a fast implementation against an independent slow oracle:
reverse-mode gradients against central finite differences, top-K against a
full sort, span decoding against exhaustive pair enumeration, excision
against a flat splice, the fused GRU against its per-step composition of
tape ops, the fused attention heads against one head at a time, the packed
sentence scorer against scoring one sentence at a time, the encoder block
computed a few rows at a time against the whole block, the attention
products against dense loops, the packed training update against reading
each decision's state on its own, and the update rule against a bandit
with a known optimum.

This module is the only copy of each oracle. Tier-1 runs the same functions
(``tests/test_checks.py`` over ``ALL_CHECKS``), and the unit tests that need
finite differences call ``finite_diff_grads``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .answer import (context_query_attention, decode_span, span_nll,
                     trilinear_similarity)
from .config import RunConfig
from .controller import (ActionId, actor_critic_update, actor_policy,
                         create_controller_params, critic_value, entropy_of)
from .encoder import (EncoderConfig, add_positions, create_encoder_params,
                      embed_tokens, encode_tokens, encoder_block)
from .episode import (EpisodeResult, _gold_sentence_nll, _gold_span_in, episode_rng,
                      run_episode)
from .errors import ContractError
from .model import QaModel
from .nn import create_gru, gru_params, linear, run_gru
from .params import ParamStore
from .selector import (SentenceDist, create_selector_params, kept_dist,
                       score_sentences, select_top_k, top_k_indices)
from .subcontext import excise_span
from .tensor import Tape, Tensor, using_dtype
from .text import QAExample, TokenDoc, Vocab
from .train import update_loss

REL_TOL = 1e-3
ABS_TOL = 1e-5
FD_STEP = 1e-4


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def finite_diff_grads(loss_fn: Callable[[], Tensor],
                      params: dict[str, Tensor] | list[Tensor],
                      h: float = FD_STEP,
                      max_coords: Optional[int] = None,
                      rng: Optional[np.random.Generator] = None) -> list[dict]:
    """Central-difference gradients vs tape gradients, per parameter.

    Returns one record per parameter with the worst absolute/relative
    mismatch over the probed coordinates and whether the tape gradient has
    a nonzero entry (``reached``), named by its key when ``params`` is a
    dict and ``#i`` when it is a list. ``loss_fn`` must rebuild the
    loss from current parameter values on every call.
    """
    if not isinstance(params, dict):
        params = {f"#{i}": p for i, p in enumerate(params)}
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    reports = []
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        worst = 0.0
        ok = True
        for c in coords:
            saved = flat[c]
            flat[c] = saved + h
            up = float(loss_fn().item())
            flat[c] = saved - h
            down = float(loss_fn().item())
            flat[c] = saved
            numeric = (up - down) / (2.0 * h)
            a = float(analytic.reshape(-1)[c])
            err = abs(a - numeric)
            tol = max(REL_TOL * abs(numeric), ABS_TOL)
            worst = max(worst, err - tol)
            if err > tol:
                ok = False
        reports.append({"param": name, "ok": ok, "worst_excess": worst,
                        "reached": bool(analytic.any())})
        p.grad = None
    return reports


def _gradcheck(loss_fn, params, **kw) -> bool:
    return all(r["ok"] for r in finite_diff_grads(loss_fn, params, **kw))


def check_gradient_ops(seed: int = 0) -> CheckResult:
    """Finite-difference every primitive and composite op in 10 seeded
    cases, reporting the first op whose gradient disagrees."""
    seeds_per_op = 10
    failures = []
    with using_dtype(np.float64):
        for case in range(seeds_per_op):
            rng = np.random.default_rng(seed * 1000 + case)
            for name, fn in _op_cases(rng):
                if not fn():
                    failures.append(f"{name}[case {case}]")
    if failures:
        return CheckResult("gradient_ops", False,
                           f"mismatch in {failures[0]} (+{len(failures) - 1} more)")
    return CheckResult("gradient_ops", True,
                       f"{seeds_per_op} seeded cases per op matched finite differences")


def _op_cases(rng: np.random.Generator):
    """(name, runner) pairs; each runner returns True when gradients match."""

    def tparam(*shape):
        return Tensor(rng.normal(0, 1, shape), requires_grad=True)

    def case_matmul():
        a, b = tparam(3, 4), tparam(4, 2)
        return _gradcheck(lambda: T.reduce_sum(T.matmul(a, b)), [a, b])

    def case_conv1d():
        x, w = tparam(5, 3), tparam(3, 3, 2)
        return _gradcheck(lambda: T.reduce_sum(T.square(T.conv1d(x, w))), [x, w])

    def case_softmax():
        x = tparam(4, 5)
        mask = np.array([True, True, True, False, True])
        return _gradcheck(
            lambda: T.reduce_sum(T.square(T.softmax(x, axis=1, mask=mask[None, :]))),
            [x])

    def case_log_softmax():
        x = tparam(6)
        return _gradcheck(lambda: T.pick(T.log_softmax(x, axis=0), 2), [x])

    def case_elementwise():
        x = tparam(3, 3)
        return _gradcheck(
            lambda: T.reduce_sum(T.mul(T.tanh(x), T.sigmoid(T.relu(x)))), [x])

    def case_reduce_max():
        x = tparam(4, 6)
        return _gradcheck(lambda: T.reduce_sum(T.reduce_max(x, axis=1)), [x])

    def case_embedding():
        table = tparam(7, 4)
        ids = rng.integers(0, 7, size=5)
        return _gradcheck(
            lambda: T.reduce_sum(T.square(T.embedding(table, ids))), [table])

    def case_gru():
        # one sequence, then a packed pair given shorter-first, so the op
        # has to reorder it; the weights tell the two final states apart
        store = ParamStore()
        grurng = np.random.default_rng(rng.integers(1 << 31))
        create_gru(store, "g", 3, 4, grurng)
        params = gru_params(store, "g")
        seq = Tensor(grurng.normal(0, 1, (4, 3)), requires_grad=True)
        pair = Tensor(grurng.normal(0, 1, (5, 3)), requires_grad=True)
        w_pair = Tensor(grurng.normal(0, 1, (2, 4)))
        return (_gradcheck(lambda: T.reduce_sum(run_gru(seq, params, [4])),
                           {**params, "seq": seq})
                and _gradcheck(lambda: T.reduce_sum(T.mul(
                    run_gru(pair, params, lengths=[2, 3]), w_pair)),
                    {**params, "seq": pair}))

    def case_embed_tokens():
        # repeated words and a repeated char row under two word ids, so the
        # per-distinct-row char max has to send each row's gradient to the
        # chars of every token that shares it
        store = ParamStore()
        store.create("emb.word", (7, 3), rng)
        store.create("emb.char", (6, 4), rng)
        tokens = [3, 5, 3, 6, 2]
        chars = [[1, 4, 0], [2, 2, 5], [1, 4, 0], [1, 4, 0], [3, 0, 0]]
        w_out = Tensor(rng.normal(0, 1, (5, 7)))
        return _gradcheck(lambda: T.reduce_sum(T.mul(
            T.square(embed_tokens(tokens, chars, store)), w_out)),
            dict(store.items()))

    def case_attention_heads():
        # two heads over five keys, queried by a subset of five query rows
        q_all, k, v = tparam(5, 4), tparam(5, 4), tparam(5, 4)
        w_out = Tensor(rng.normal(0, 1, (2, 4)))
        return _gradcheck(lambda: T.reduce_sum(T.mul(T.attention_heads(
            T.embedding(q_all, [3, 1]), k, v, 2), w_out)), [q_all, k, v])

    return [("matmul", case_matmul), ("conv1d", case_conv1d),
            ("softmax", case_softmax), ("log_softmax", case_log_softmax),
            ("elementwise", case_elementwise), ("reduce_max", case_reduce_max),
            ("embedding", case_embedding), ("gru", case_gru),
            ("embed_tokens", case_embed_tokens),
            ("attention_heads", case_attention_heads)]


def attention_per_head(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Oracle for ``attention_heads``: each head's columns narrowed out of
    q, k and v, softmax(q_h k_h^T) v_h by generic tape ops, and the head
    outputs concatenated in head order."""
    d_head = q.data.shape[1] // n_heads
    outs = []
    for h in range(n_heads):
        q_h, k_h, v_h = (T.narrow(a, 1, h * d_head, (h + 1) * d_head)
                         for a in (q, k, v))
        outs.append(T.matmul(T.softmax(T.matmul(q_h, T.transpose(k_h)), axis=1), v_h))
    return T.concat(outs, axis=1)


def check_attention_heads(seed: int = 0) -> CheckResult:
    """The fused attention op against the per-head oracle, in float32 at
    paper width (d_model 128, 4 heads): its value read with no tape and
    under a tape, and the q, k and v gradients of its vjp, which recomputes
    every head's probabilities, within 1e-5 relative. Two shapes: 512
    queries over 1,900 keys, as the controller state of a long document
    reads its encoder rows, and a 17-row context attending to itself, as
    the answer pre-check reads one."""
    rng = np.random.default_rng(seed)
    shapes = ((512, 1900), (17, 17))
    for m, n in shapes:
        q, k, v = (Tensor(rng.normal(0, 1, (rows, 128)), requires_grad=True)
                   for rows in (m, n, n))
        leaves = {"q": q, "k": k, "v": v}
        w_out = Tensor(rng.normal(0, 1, (m, 128)))
        fused, oracle = (_output_and_grads(lambda: run(q, k, v, 4), "output",
                                           leaves, w_out)
                         for run in (T.attention_heads, attention_per_head))
        fused["untaped output"] = T.attention_heads(q, k, v, 4).data
        oracle["untaped output"] = oracle["output"]
        mismatch = _worst_mismatch(fused, oracle, 1e-5)
        if mismatch:
            return CheckResult("attention_heads", False,
                               f"{m} queries over {n} keys: {mismatch}")
    return CheckResult("attention_heads", True,
                       f"{len(shapes)} float32 reads (512 queries over 1,900 keys "
                       f"and a 17-row context, 4 heads of 32) matched the per-head "
                       f"oracle in value, with and without a tape, and in the q, "
                       f"k and v gradients")


def gru_step(h: Tensor, x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Oracle GRU cell: one step on 1-D state ``h`` and input ``x``, composed
    of generic tape ops.

    h' = (1 - z) * h + z * cand, with update gate z, reset gate r and
    candidate tanh(x W + (r * h) U + b). At all-zero parameters this halves
    the state: z = 0.5, cand = 0.
    """
    d_h = h.data.shape[-1]
    gates = T.sigmoid(T.add(T.add(T.matmul(x, params["w_gates"]),
                                  T.matmul(h, params["u_gates"])),
                            params["b_gates"]))
    z = T.narrow(gates, 0, 0, d_h)
    r = T.narrow(gates, 0, d_h, 2 * d_h)
    cand = T.tanh(T.add(T.add(T.matmul(x, params["w_cand"]),
                              T.matmul(T.mul(r, h), params["u_cand"])),
                        params["b_cand"]))
    return T.add(T.mul(T.sub(1.0, z), h), T.mul(z, cand))


def gru_steps(seq: Tensor, params: dict[str, Tensor], lengths) -> Tensor:
    """Oracle for ``run_gru``: ``gru_step`` over the rows of each of the
    sequences ``lengths`` packs in ``seq``, one sequence after another."""
    d_h = params["u_cand"].data.shape[0]
    finals, start = [], 0
    for n in lengths:
        h = Tensor(np.zeros(d_h, dtype=seq.data.dtype))
        for t in range(start, start + n):
            row = T.reshape(T.narrow(seq, 0, t, t + 1), (seq.data.shape[1],))
            h = gru_step(h, row, params)
        finals.append(T.reshape(h, (1, d_h)))
        start += n
    return T.concat(finals, axis=0)


def _pack_lengths(rng: np.random.Generator, n_seqs: int) -> list[int]:
    """Lengths 1..6 with an empty sequence and a tie once there is room for
    them, never longest-first, so the op has to sort them."""
    lengths = [int(n) for n in rng.integers(1, 7, size=n_seqs)]
    if n_seqs >= 2:
        lengths[0] = 0
    if n_seqs >= 3:
        lengths[1] = lengths[2]
    rng.shuffle(lengths)
    if n_seqs >= 2 and lengths == sorted(lengths, reverse=True):
        lengths.reverse()
    return lengths


def _output_and_grads(forward: Callable[[], Tensor], key: str,
                      leaves: dict[str, Tensor], w_out: Tensor) -> dict:
    """``forward()``'s value under ``key`` and the gradient of
    sum(output * w_out) for each leaf (zeros where none arrives)."""
    with Tape() as tape:
        out = forward()
        tape.backward(T.reduce_sum(T.mul(out, w_out)))
    result = {key: out.data}
    for name, p in leaves.items():
        result[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
    return result


def _worst_mismatch(got: dict, want: dict, tol: float,
                    floor: float = 1e-12) -> Optional[str]:
    """The first entry whose max error relative to the oracle's largest
    magnitude (or to ``floor``, if that is larger) exceeds ``tol``,
    described, or None when all agree."""
    for name, w in want.items():
        g = got[name]
        err = (np.abs(g - w).max() / max(np.abs(w).max(), floor)
               if g.shape == w.shape else np.inf)
        if not err <= tol:
            return f"{name} off by {err:.2e} relative (bound {tol:.0e})"
    return None


def check_gru_sequence(seed: int = 0) -> CheckResult:
    """The fused GRU against the per-step oracle: the final states and all
    seven gradients (six weights and the input sequence).

    Single sequences of lengths 1..8 at random widths in float64, then
    packs of 1..5 sequences (mixed lengths with an empty one
    and a tie, in no sorted order) against the oracle run on each sequence
    alone. In float32 at paper width (128 -> 512): one sequence of 80 rows
    and a pack of 8 sequences of 20-80 rows. Last, a float32 pack of 4
    sequences of 6 rows at 16 -> 700, where every step's product splits
    into column panels, forward and backward, and no panel width divides
    the product's width, so each last panel is narrower.
    """
    max_len, max_pack = 8, 5
    rng = np.random.default_rng(seed)

    def width():
        return int(rng.integers(1, 7)), int(rng.integers(1, 9))

    cases = [(np.float64, None, length, *width(), 1e-9)
             for length in range(1, max_len + 1)]
    cases += [(np.float64, _pack_lengths(rng, n_seqs), None, *width(), 1e-9)
              for n_seqs in range(1, max_pack + 1)]
    cases.append((np.float32, None, 80, 128, 512, 1e-5))
    cases.append((np.float32, [int(n) for n in rng.integers(20, 81, size=8)], None,
                  128, 512, 1e-5))
    cases.append((np.float32, [6] * 4, None, 16, 700, 1e-5))
    for dtype, lengths, length, d_x, d_h, tol in cases:
        seqs = [length] if lengths is None else lengths
        n_rows = sum(seqs)
        with using_dtype(dtype):
            store = ParamStore()
            create_gru(store, "g", d_x, d_h, rng)
            params = gru_params(store, "g")
            # create_gru zeroes the biases; perturb everything so that no
            # gradient path starts out all zero
            for p in params.values():
                p.data += rng.normal(0, 0.1, p.data.shape).astype(dtype)
            seq = Tensor(rng.normal(0, 1, (n_rows, d_x)), requires_grad=True)
            w_out = Tensor(rng.normal(0, 1, (len(seqs), d_h)))
            leaves = {"seq": seq, **params}
            fused, oracle = (
                _output_and_grads(lambda: run(seq, params, seqs),
                                  "output", leaves, w_out)
                for run in (run_gru, gru_steps))
        mismatch = _worst_mismatch(fused, oracle, tol)
        if mismatch:
            what = f"L={length}" if lengths is None else f"pack of lengths {lengths}"
            return CheckResult(
                "gru_sequence", False,
                f"{np.dtype(dtype).name} {what} {d_x}->{d_h}: {mismatch}")
    singles = sum(lengths is None for _, lengths, *_ in cases)
    packs = [lengths for _, lengths, *_ in cases if lengths is not None]
    return CheckResult("gru_sequence", True,
                       f"{singles} sequences (lengths 1..{max_len} in float64, "
                       f"80 rows at 128->512 in float32) and {len(packs)} packs "
                       f"of {sum(map(len, packs))} sequences (1..{max_pack} per pack "
                       f"with empty and tied lengths in float64, 8 of 20-80 rows "
                       f"at 128->512 and 4 of 6 rows at 16->700 in float32, the "
                       f"last split into column panels at every step) matched the "
                       f"per-step oracle in value and all 7 gradients")


def embed_tokens_per_token(tokens, char_ids, store: ParamStore) -> Tensor:
    """Oracle for ``embed_tokens``: the char max over every token's own row."""
    word_vecs = T.embedding(store["emb.word"], np.asarray(tokens, dtype=np.int64))
    chars = np.asarray(char_ids, dtype=np.int64)
    char_vecs = T.embedding(store["emb.char"], chars)      # [n x w_c x d2]
    pad_mask = (chars != 0).astype(char_vecs.data.dtype)   # PAD id is 0
    penalty = Tensor((pad_mask - 1.0)[:, :, None] * 1e9)
    char_max = T.reduce_max(T.add(char_vecs, penalty), axis=1)
    return T.concat([word_vecs, char_max], axis=1)


def score_sentences_loop(q: Tensor, ctx: TokenDoc, cfg: EncoderConfig,
                         store: ParamStore) -> SentenceDist:
    """Oracle for ``score_sentences``: embed, project, add positions 0..L-1,
    convolve and pool one sentence at a time."""
    if ctx.n_sentences < 1:
        raise ContractError("cannot score an empty context")
    scores = []
    for tokens, chars in zip(ctx.sentences, ctx.char_ids):
        sent = add_positions(linear(embed_tokens_per_token(tokens, chars, store),
                                    store["enc.proj_w"], store["enc.proj_b"]), cfg)
        seq = T.concat([q, sent], axis=0)
        conv = T.relu(T.add(T.conv1d(seq, store["sel.conv_w"]), store["sel.conv_b"]))
        pooled = T.reduce_max(conv, axis=0)
        scores.append(T.matmul(pooled, store["sel.score_w"]))
    logits = T.concat([T.reshape(s, (1,)) for s in scores], axis=0)
    probs = T.softmax(logits, axis=0)
    return SentenceDist(probs=probs.data.copy(), logits=logits)


def check_selector(seed: int = 0) -> CheckResult:
    """The packed sentence scorer, fed the encoder's projected rows, against
    the one-sentence-at-a-time oracle that embeds and projects each sentence
    itself: logits and the gradients of every parameter and of the question
    rows. Then, in the same terms, ``kept_dist``'s logits for a random
    subset of the sentences against the oracle's scoring of the document
    narrowed to them.

    200 float64 docs of 1..12 sentences of 1..9 tokens drawn from 8 words
    (so words and char rows repeat), questions of 1..6 rows, selector
    kernels 3 and 5; bound 1e-9 relative.
    """
    cases = 200
    rng = np.random.default_rng(seed)
    vocab = toy_vocab(n_words=11, char_width=4)
    for case in range(cases):
        kernel = (3, 5)[case % 2]
        n_sent = int(rng.integers(1, 13))
        sentences = [[int(t) for t in rng.integers(3, 11, size=rng.integers(1, 10))]
                     for _ in range(n_sent)]
        doc = toy_doc(sentences, vocab)
        m = int(rng.integers(1, 7))
        with using_dtype(np.float64):
            cfg = EncoderConfig(d1=5, d2=4, d_model=6, k_s=3, n_heads=2)
            store = ParamStore()
            create_encoder_params(store, cfg, vocab.n_words, vocab.n_chars, rng)
            create_selector_params(store, cfg, kernel, 4, rng)
            # the biases start at zero; perturb everything so that no
            # gradient path starts out all zero
            for _, p in store.items():
                p.data += rng.normal(0, 0.1, p.data.shape)
            q = Tensor(rng.normal(0, 1, (m, cfg.d_model)), requires_grad=True)
            kept = sorted(int(i) for i in rng.choice(
                n_sent, size=int(rng.integers(1, n_sent + 1)), replace=False))
            narrowed = toy_doc([sentences[i] for i in kept], vocab)
            leaves = {"question": q, **dict(store.items())}

            def packed_scores():
                ctx = encode_tokens(doc.flat_tokens(), doc.flat_char_ids(), cfg, store)
                return score_sentences(q, doc, ctx.projected, cfg, store)

            for what, fast, oracle_doc in (
                    ("scores", lambda: packed_scores().logits, doc),
                    (f"kept {kept}", lambda: kept_dist(packed_scores(), kept).logits,
                     narrowed)):
                w_out = Tensor(rng.normal(0, 1, oracle_doc.n_sentences))
                got, want = (
                    _output_and_grads(forward, "logits", leaves, w_out)
                    for forward in (fast, lambda: score_sentences_loop(
                        q, oracle_doc, cfg, store).logits))
                mismatch = _worst_mismatch(got, want, 1e-9)
                if mismatch:
                    return CheckResult(
                        "selector", False,
                        f"case {case} ({n_sent} sentences of lengths "
                        f"{[len(s) for s in sentences]}, {m} question rows, kernel "
                        f"{kernel}; {what}): {mismatch}")
    return CheckResult("selector", True,
                       f"{cases} docs (1..12 sentences of 1..9 tokens, questions "
                       f"of 1..6 rows, kernels 3 and 5) "
                       f"scored from the encoder's projected rows, and their "
                       f"kept entries for a random subset of the sentences, "
                       f"matched the one-sentence-at-a-time oracle in logits and "
                       f"all gradients")


def check_encoder_rows(seed: int = 0) -> CheckResult:
    """``Encoded``, which computes the block's output rows as they are
    read, against rows of the whole block: ``rows(index)`` against those
    rows of ``encoder_block`` over the full sequence, and ``matrix`` read
    after ``rows(index)`` against the full block. Then ``gather``, which
    builds a narrowed context's encoding from the projected rows of the
    document's, against a fresh encoding of the narrowed tokens, in
    ``matrix``. All in the output and the gradients of every encoder
    parameter, within 1e-9 relative.

    200 float64 docs of 1..40 tokens drawn from 8 words.
    The row subsets are random and ascending; in every other case of a doc
    over the tiny config's ``max_state_tokens`` rows, the head and tail rows
    the controller state reads. The gathers alternate between what a SELECT
    keeps (whole sentences, the doc cut into random ones) and what an
    EXCISE keeps (all tokens outside a random span); a one-token doc is
    always narrowed as by a SELECT.
    """
    cases = 200
    max_state_tokens = tiny_config().max_state_tokens
    rng = np.random.default_rng(seed)
    vocab = toy_vocab(n_words=11, char_width=4)
    head_tail = 0
    narrowed = {"select": 0, "excise": 0}
    for case in range(cases):
        n = int(rng.integers(1, 41))
        tokens = [int(t) for t in rng.integers(3, 11, size=n)]
        chars = [vocab.char_ids(vocab.word(t)) for t in tokens]
        if n > max_state_tokens and case % 4 < 2:
            head = (max_state_tokens + 1) // 2
            index = np.r_[0:head, n - (max_state_tokens - head):n]
            head_tail += 1
        else:
            index = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                       replace=False))
        if case % 2 and n > 1:
            action = "excise"
            start = int(rng.integers(0, n))
            end = int(rng.integers(start, min(n, start + n - 1)))
            kept = np.r_[0:start, end + 1:n]
        else:
            action = "select"
            cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)),
                                      replace=False))
            sentences = np.split(np.arange(n), cuts)
            chosen = np.sort(rng.choice(len(sentences), replace=False,
                                        size=int(rng.integers(1, len(sentences) + 1))))
            kept = np.concatenate([sentences[i] for i in chosen])
        narrowed[action] += 1
        with using_dtype(np.float64):
            cfg = EncoderConfig(d1=5, d2=4, d_model=6, k_s=3, n_heads=2)
            store = ParamStore()
            create_encoder_params(store, cfg, vocab.n_words, vocab.n_chars, rng)
            # the biases start at zero; perturb everything so that no
            # gradient path starts out all zero
            for _, p in store.items():
                p.data += rng.normal(0, 0.1, p.data.shape)
            leaves = dict(store.items())

            def full_block():
                projected = linear(embed_tokens(tokens, chars, store),
                                   store["enc.proj_w"], store["enc.proj_b"])
                return encoder_block(add_positions(projected, cfg), cfg, store, "enc")

            def matrix_after_rows():
                enc = encode_tokens(tokens, chars, cfg, store)
                enc.rows(index)
                return enc.matrix

            for what, lazy, oracle, shape in (
                    ("rows", lambda: encode_tokens(tokens, chars, cfg, store).rows(index),
                     lambda: T.embedding(full_block(), index), (index.size, cfg.d_model)),
                    ("matrix after rows", matrix_after_rows, full_block,
                     (n, cfg.d_model)),
                    (f"{action} gather of {kept.tolist()}",
                     lambda: encode_tokens(tokens, chars, cfg, store).gather(kept).matrix,
                     lambda: encode_tokens([tokens[i] for i in kept],
                                           [chars[i] for i in kept], cfg, store).matrix,
                     (kept.size, cfg.d_model))):
                w_out = Tensor(rng.normal(0, 1, shape))
                got, want = (_output_and_grads(forward, "output", leaves, w_out)
                             for forward in (lazy, oracle))
                mismatch = _worst_mismatch(got, want, 1e-9)
                if mismatch:
                    return CheckResult(
                        "encoder_rows", False,
                        f"case {case} ({what}, rows {index.tolist()} of {n}): "
                        f"{mismatch}")
    return CheckResult("encoder_rows", True,
                       f"{cases} docs (1..40 tokens; "
                       f"{head_tail} read by their head and tail rows, the rest by "
                       f"random row subsets) matched the full block in rows read "
                       f"alone and in the matrix read after them, and "
                       f"{narrowed['select']} SELECT and {narrowed['excise']} "
                       f"EXCISE gathers matched a fresh encoding of the narrowed "
                       f"tokens, value and all encoder gradients")


def tiny_config(**overrides) -> RunConfig:
    """A configuration small enough for oracle and gradient runs."""
    base = dict(d1=8, d2=6, d_model=8, k_s=3, n_heads=2, char_width=6,
                sel_kernel=3, sel_filters=6, gru_size=6, max_span_len=4,
                max_state_tokens=16, batch_size=2, updates=1, eval_every=0)
    base.update(overrides)
    return RunConfig(**base)


def tiny_example(rng: np.random.Generator, vocab: Vocab,
                 n_sentences: int = 3, tokens_per_sentence: int = 4,
                 q_len: int = 2) -> QAExample:
    n_words = vocab.n_words

    def ids(k):
        return [int(i) for i in rng.integers(3, n_words, size=k)]

    sentences = [ids(tokens_per_sentence) for _ in range(n_sentences)]
    doc = toy_doc(sentences, vocab)
    q = ids(q_len)
    gold = list(sentences[0][:2])
    return QAExample("toy-0", doc, q, [vocab.char_ids(vocab.word(t)) for t in q],
                     [gold])


def toy_doc(sentences: list[list[int]], vocab: Vocab) -> TokenDoc:
    """A document of the given word ids, with their char ids from ``vocab``."""
    return TokenDoc.from_words([[vocab.word(t) for t in s] for s in sentences], vocab)


def toy_vocab(n_words: int = 30, char_width: int = 6) -> Vocab:
    words = [f"w{i}" for i in range(n_words)]
    return Vocab(words, list("w0123456789"), char_width=char_width)


def end_to_end_loss(model: QaModel, example: QAExample,
                    frozen_deltas: Optional[np.ndarray] = None,
                    frozen_kept: Optional[list[int]] = None
                    ) -> tuple[Tensor, np.ndarray, list[int]]:
    """One full decision-step loss with a pinned action path: SELECT, then
    ANSWER on the narrowed context, both states read by one packed actor and
    one packed critic call. The narrowed context's encoding is gathered from
    the document's, as an episode gathers it.

    Covers every module: encoder, sentence scorer, span extractor, both
    GRUs, the policy and value heads, and all four loss terms: actor,
    critic, the span NLL on the narrowed context and the gold sentence's
    NLL on the document, the sentence scorer's only one. Freeze
    the advantage weights and the narrowed sentence set when
    differentiating numerically: the advantage is a constant by contract,
    and the selection is a discrete choice the loss conditions on.
    """
    cfg = model.cfg
    q_enc = model.encode_question(example)
    ctx = example.doc
    ctx_enc = model.encode_doc(ctx)
    state = model.state(ctx_enc, q_enc)

    dist = model.sentence_dist(q_enc, ctx, ctx_enc)
    if frozen_kept is not None:
        pinned = np.zeros_like(dist.probs)
        pinned[frozen_kept] = 1.0 / len(frozen_kept)
        dist = SentenceDist(probs=pinned, logits=dist.logits)
    narrowed, kept = select_top_k(dist, ctx, 2)

    ctx2_enc = model.encode_doc(narrowed, ctx_enc)
    state2 = model.state(ctx2_enc, q_enc)
    lengths = [state.data.shape[0], state2.data.shape[0]]
    packed = T.concat([state, state2], axis=0)
    logp = model.policy(packed, None, lengths)[1]
    values = model.value(packed, lengths)
    out = model.answer(q_enc, ctx2_enc)

    log_probs = T.pick(logp, ([0, 1], [ActionId.SELECT, ActionId.ANSWER]))
    loss_actor, loss_critic, deltas = actor_critic_update(
        log_probs, values, [0.0, 0.7], [2], cfg.gamma, frozen_deltas=frozen_deltas)
    loss = T.add(loss_actor, loss_critic)
    gold = _gold_span_in(narrowed, example.gold_answers)
    if gold is None:
        gold = (0, 0)
    loss = T.add(loss, span_nll(out, gold[0], gold[1]))
    loss = T.add(loss, _gold_sentence_nll(dist, ctx, example.gold_answers))
    return loss, deltas, kept


def check_gradient_end_to_end(seed: int = 0) -> CheckResult:
    """Finite differences of ``end_to_end_loss`` in every parameter, at 6
    random coordinates of each, on a doc whose state holds all its rows and
    on one longer than the state, so that the state reads only its head and
    tail encoder rows. Every parameter's tape gradient must have a nonzero
    entry on both docs: finite differences agree with the zero gradient of
    a parameter that the loss never reaches, so they alone miss a cut
    path."""
    with using_dtype(np.float64):
        vocab = toy_vocab()
        cfg = tiny_config(seed=seed)
        model = QaModel(cfg, vocab, seed=seed)
        rng = np.random.default_rng(seed + 17)
        params = dict(model.store.items())
        lengths = []
        for n_sentences, tokens_per_sentence in ((3, 4), (5, 5)):
            example = tiny_example(rng, vocab, n_sentences, tokens_per_sentence)
            lengths.append(example.doc.n_tokens)
            # pin the discrete pieces: advantage weights are constants by
            # contract, and the selected sentence set is conditioned on.
            # the small step keeps central differences off relu kinks
            _, deltas, kept = end_to_end_loss(model, example)
            reports = finite_diff_grads(
                lambda: end_to_end_loss(model, example, frozen_deltas=deltas,
                                        frozen_kept=kept)[0],
                params, h=1e-5, max_coords=6, rng=rng)
            bad = [r["param"] for r in reports if not r["ok"]]
            if bad:
                return CheckResult("gradient_end_to_end", False,
                                   f"{lengths[-1]}-token doc: gradient mismatch "
                                   f"in {bad[:3]}")
            dead = [r["param"] for r in reports if not r["reached"]]
            if dead:
                return CheckResult("gradient_end_to_end", False,
                                   f"{lengths[-1]}-token doc: an all-zero gradient "
                                   f"in {len(dead)} parameters, {dead[:3]} first")
    if max(lengths) <= cfg.max_state_tokens:
        return CheckResult("gradient_end_to_end", False,
                           f"no doc is longer than the {cfg.max_state_tokens}-row state")
    return CheckResult("gradient_end_to_end", True,
                       f"{len(params)} parameters matched finite differences on "
                       f"docs of {lengths[0]} and {lengths[1]} tokens (a state of "
                       f"at most {cfg.max_state_tokens} context rows)")


def serial_update_loss(model: QaModel, results: list[EpisodeResult],
                       cfg: RunConfig) -> Tensor:
    """Oracle for ``train.update_loss``: each decision's state read alone, as
    a pack of one, by its own recorded ``policy`` and ``value`` call, each
    step's TD error, actor term (on the taken action's log-probability
    alone) and critic term built on their own, and the entropy bonus added
    step by step."""
    terms = []
    for result in results:
        terms.extend(result.aux_losses)
        steps = []      # (taken log-probability, value, reward)
        for rec in result.steps:
            alone = [rec.state.data.shape[0]]
            probs, log_probs = model.policy(rec.state, rec.mask[None], alone)
            log_prob = T.pick(log_probs, (0, int(ActionId[rec.action.upper()])))
            value = T.pick(model.value(rec.state, alone), 0)
            steps.append((log_prob, value, rec.reward))
            if cfg.entropy_coef > 0.0:
                terms.append(T.mul(entropy_of(probs, log_probs), -cfg.entropy_coef))
        for i, (log_prob, value, reward) in enumerate(steps):
            # r + gamma * V(s') - V(s); the episode's last state has no s'
            td = T.sub(reward, value)
            if i + 1 < len(steps):
                td = T.add(td, T.mul(steps[i + 1][1], cfg.gamma))
            terms.append(T.mul(log_prob, -float(td.item())))
            terms.append(T.square(td))
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return total


def check_packed_update(seed: int = 0) -> CheckResult:
    """The packed update loss (one recorded actor and critic pass over all
    of a batch's states) against the per-decision oracle: the summed loss
    and every parameter gradient, each within 1e-9 relative to its own
    largest entry. A parameter whose gradient is below 1e-7 of the model's
    largest entry is held to 1e-16 of that entry instead, under one float64
    ulp of it, so a gradient that is pure round-off can pass.

    Float64 tiny models; in each of 3 rounds, batches of 1 and 4 train
    episodes at ``entropy_coef`` 0 and 0.1. Documents of 1..5 sentences, so
    episodes end after different numbers of steps; the sampled episodes
    must take all three actions, or the check fails for lack of coverage.
    """
    vocab = toy_vocab()
    rng = np.random.default_rng(seed)
    actions: dict[str, int] = {"answer": 0, "select": 0, "excise": 0}
    n_batches = n_episodes = 0
    for rnd in range(3):
        for batch_size in (1, 4):
            for coef in (0.0, 0.1):
                with using_dtype(np.float64):
                    cfg = tiny_config(seed=seed * 1000 + n_batches, entropy_coef=coef,
                                      batch_size=batch_size)
                    model = QaModel(cfg, vocab, seed=cfg.seed)
                    batch = []
                    for j in range(batch_size):
                        ex = tiny_example(rng, vocab, n_sentences=int(rng.integers(1, 6)),
                                          tokens_per_sentence=int(rng.integers(2, 6)),
                                          q_len=int(rng.integers(1, 4)))
                        ex.id = f"packed-{n_batches}-{j}"
                        batch.append(ex)
                    taken: list[str] = []

                    def rolled_out(loss_fn):
                        # the episodes play on the tape the loss is read on
                        results = [run_episode(model, ex, cfg, "train",
                                               episode_rng(cfg.seed, ex.id))
                                   for ex in batch]
                        taken[:] = [rec.action for r in results for rec in r.steps]
                        return loss_fn(model, results, cfg)

                    packed, oracle = (
                        _output_and_grads(lambda: rolled_out(loss_fn), "loss",
                                          dict(model.store.items()), Tensor(1.0))
                        for loss_fn in (lambda *a: update_loss(*a)[0],
                                        serial_update_loss))
                # a gradient that cancels to round-off gets an absolute floor:
                # the selector's conv bias, once every pooled feature is
                # active, shifts all sentence scores alike, and the softmax
                # cancels that
                loss = {"loss": oracle.pop("loss")}
                scale = max(np.abs(w).max() for w in oracle.values())
                mismatch = (_worst_mismatch(packed, loss, 1e-9)
                            or _worst_mismatch(packed, oracle, 1e-9,
                                               floor=1e-7 * scale))
                if mismatch:
                    return CheckResult(
                        "packed_update", False,
                        f"round {rnd}, batch of {batch_size}, entropy_coef {coef} "
                        f"(actions {taken}): {mismatch}")
                n_batches += 1
                n_episodes += batch_size
                for action in taken:
                    actions[action] += 1
    if min(actions.values()) == 0:
        return CheckResult("packed_update", False,
                           f"the sampled episodes never took every action: {actions}")
    return CheckResult("packed_update", True,
                       f"{n_batches} batches ({n_episodes} episodes, "
                       f"{sum(actions.values())} decisions: {actions}; batches of 1 "
                       f"and 4, entropy_coef 0 and 0.1) matched the per-decision "
                       f"oracle in the summed loss and every parameter gradient")


def check_topk(seed: int = 0) -> CheckResult:
    """``top_k_indices`` on 1,000 random distributions against a full sort."""
    cases = 1000
    rng = np.random.default_rng(seed)
    for case in range(cases):
        n = int(rng.integers(1, 12))
        probs = rng.dirichlet(np.ones(n))
        k = int(rng.integers(1, n + 2))
        got = top_k_indices(probs, k)
        # oracle: stable full sort by (-p, index)
        want = sorted(sorted(range(n), key=lambda i: (-probs[i], i))[:min(k, n)])
        if got != want:
            return CheckResult("topk", False, f"case {case}: {got} != {want}")
    return CheckResult("topk", True, f"{cases} random distributions matched full sort")


def check_excision(seed: int = 0) -> CheckResult:
    """Draw random docs and spans until 1,000 splices have been compared.

    Draws that cannot be excised (a one-token doc, or a span covering the
    whole doc) are redrawn, not counted. Each doc's ``positions`` are a
    random permutation, so a cut that renumbers them, or rebuilds them from
    the doc's own offsets, fails.
    """
    cases = 1000
    rng = np.random.default_rng(seed)
    case = 0
    while case < cases:
        n_sent = int(rng.integers(1, 6))
        lens = [int(rng.integers(1, 6)) for _ in range(n_sent)]
        total = sum(lens)
        if total < 2:
            continue
        tokens = [int(t) for t in rng.integers(3, 99, size=total)]
        sentences = []
        pos = 0
        for ln in lens:
            sentences.append(tokens[pos:pos + ln])
            pos += ln
        doc = TokenDoc(sentences, [[[1]] * ln for ln in lens],
                       rng.permutation(total).tolist())
        start = int(rng.integers(0, total))
        end = int(rng.integers(start, total))
        if end - start + 1 >= total:
            continue
        got = excise_span(doc, start, end)
        want = tokens[:start] + tokens[end + 1:]
        if got.flat_tokens() != want:
            return CheckResult("excision", False,
                               f"case {case}: tokens {got.flat_tokens()} != {want}")
        if got.n_tokens != len(want):
            return CheckResult("excision", False,
                               f"case {case}: n_tokens {got.n_tokens} != {len(want)}")
        # surviving tokens keep their provenance
        if got.positions != doc.positions[:start] + doc.positions[end + 1:]:
            return CheckResult("excision", False,
                               f"case {case}: provenance of surviving tokens changed")
        case += 1
    return CheckResult("excision", True,
                       f"{cases} random splices matched the flat-delete oracle")


def check_span_decode(seed: int = 0) -> CheckResult:
    """``decode_span`` in 500 random cases against enumerating every pair."""
    cases = 500
    rng = np.random.default_rng(seed)
    for case in range(cases):
        n = int(rng.integers(1, 20))
        p_s = rng.dirichlet(np.ones(n))
        p_e = rng.dirichlet(np.ones(n))
        max_len = int(rng.integers(1, n + 3))
        got = decode_span(p_s, p_e, max_len)
        best, want = -1.0, (0, 0)
        for i in range(n):
            for j in range(i, min(n, i + max_len)):
                if p_s[i] * p_e[j] > best:
                    best, want = p_s[i] * p_e[j], (i, j)
        if got != want:
            return CheckResult("span_decode", False,
                               f"case {case}: {got} != {want}")
    return CheckResult("span_decode", True,
                       f"{cases} cases matched exhaustive pair enumeration")


def check_trilinear(seed: int = 0) -> CheckResult:
    """``trilinear_similarity`` in 50 random cases against a loop over pairs."""
    cases = 50
    rng = np.random.default_rng(seed)
    for case in range(cases):
        n, m, d = (int(rng.integers(1, 6)), int(rng.integers(1, 5)),
                   int(rng.integers(1, 9)))
        q = Tensor(rng.normal(0, 1, (m, d)))
        dd = Tensor(rng.normal(0, 1, (n, d)))
        w = Tensor(rng.normal(0, 1, 3 * d))
        got = trilinear_similarity(q, dd, w).data
        want = np.zeros((n, m))
        for i in range(n):
            for j in range(m):
                qv, dv = q.data[j], dd.data[i]
                feat = np.concatenate([qv, dv, qv * dv])
                want[i, j] = float(w.data @ feat)
        if np.abs(got - want).max() > 1e-5:
            return CheckResult("trilinear", False, f"case {case} mismatch")
    return CheckResult("trilinear", True, f"{cases} cases matched the loop oracle")


def check_attention_b(seed: int = 0) -> CheckResult:
    """``context_query_attention`` in 50 random cases against the dense
    three-matrix product."""
    cases = 50
    rng = np.random.default_rng(seed)
    for case in range(cases):
        n, m, d = (int(rng.integers(1, 6)), int(rng.integers(1, 5)),
                   int(rng.integers(1, 9)))
        q = Tensor(rng.normal(0, 1, (m, d)))
        dd = Tensor(rng.normal(0, 1, (n, d)))
        s = Tensor(rng.normal(0, 1, (n, m)))
        pair = context_query_attention(s, q, dd)

        def naive_softmax(x, axis):
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            return e / e.sum(axis=axis, keepdims=True)

        s_row = naive_softmax(s.data, 1)
        s_col = naive_softmax(s.data, 0)
        want_a = s_row @ q.data
        want_b = s_row @ s_col.T @ dd.data
        if not (np.allclose(pair.a.data, want_a, atol=1e-5)
                and np.allclose(pair.b.data, want_b, atol=1e-5)):
            return CheckResult("attention_b", False, f"case {case} mismatch")
    return CheckResult("attention_b", True,
                       f"{cases} cases matched the dense three-matrix product")


def check_bandit(seed: int = 0) -> CheckResult:
    """The actor-critic update rule alone, on a three-armed bandit.

    States are random [3 x 8] rows and rewards depend on the action only:
    one target arm pays 1.0, the others 0.0. A controller of GRU width 12
    trains for 2,000 single-step episodes at gamma 0.9. If the losses and
    the optimizer are wired correctly, the policy saturates on the target
    arm (probability > 0.95) and the critic approaches the optimal expected
    reward (within 0.1 of 1.0), both read as means over 8 probe states.
    Every 50 updates the target probability is probed, and the first update
    where it exceeds 0.95 is reported (-1 if never).
    """
    ctx_rows, d_model = 3, 8
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xBA4D17,)))
    store = ParamStore()
    create_controller_params(store, d_model, 12, rng)
    target = int(seed) % 3
    probe_states = [rng.normal(0.0, 1.0, size=(ctx_rows, d_model))
                    for _ in range(8)]
    probe_seq = Tensor(np.concatenate(probe_states))
    probe_lengths = [ctx_rows] * len(probe_states)

    def probe() -> tuple[float, float]:
        """Mean target-action probability and mean value over the probe
        states, read by one packed actor and one packed critic call."""
        probs, _ = actor_policy(probe_seq, store, None, probe_lengths)
        values = critic_value(probe_seq, store, probe_lengths)
        return (float(probs.data.mean(axis=0, dtype=np.float64)[target]),
                float(values.data.mean(dtype=np.float64)))

    reached = -1
    for update in range(2000):
        state_data = rng.normal(0.0, 1.0, size=(ctx_rows, d_model))
        with Tape() as tape:
            state = Tensor(state_data)
            probs, logp = actor_policy(state, store, None, [ctx_rows])
            value = critic_value(state, store, [ctx_rows])
            p = probs.data[0].astype(np.float64)
            action = int(rng.choice(3, p=p / p.sum()))
            loss_actor, loss_critic, _ = actor_critic_update(
                T.pick(logp, ([0], [action])), value,
                [1.0 if action == target else 0.0], [1], 0.9)
            tape.backward(T.add(loss_actor, loss_critic))
        store.apply_gradients()
        if reached < 0 and (update + 1) % 50 == 0 and probe()[0] > 0.95:
            reached = update + 1

    target_prob, final_value = probe()
    ok = target_prob > 0.95 and abs(final_value - 1.0) < 0.1
    return CheckResult("bandit", ok,
                       f"target prob {target_prob:.3f}, critic {final_value:.3f}, "
                       f"reached threshold at update {reached}")


ALL_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "gradient_ops": check_gradient_ops,
    "gradient_end_to_end": check_gradient_end_to_end,
    "gru_sequence": check_gru_sequence,
    "selector": check_selector,
    "topk": check_topk,
    "excision": check_excision,
    "span_decode": check_span_decode,
    "trilinear": check_trilinear,
    "attention_b": check_attention_b,
    "attention_heads": check_attention_heads,
    "bandit": check_bandit,
    "packed_update": check_packed_update,
    "encoder_rows": check_encoder_rows,
}


def run_checks(only: Optional[str] = None, seed: int = 0) -> list[CheckResult]:
    if only is not None and only not in ALL_CHECKS:
        raise ContractError(f"unknown check {only!r}; "
                            f"available: {sorted(ALL_CHECKS)}")
    names = [only] if only else list(ALL_CHECKS)
    return [ALL_CHECKS[name](seed=seed) for name in names]
