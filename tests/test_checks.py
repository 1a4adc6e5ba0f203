"""Every ``cfqa check`` oracle passes, and planted faults make eleven of them fail."""

import re

import numpy as np
import pytest

from cfqa import checks, encoder, selector, train
from cfqa import tensor as T
from cfqa.answer import context_query_attention, decode_span, trilinear_similarity
from cfqa.nn import run_gru
from cfqa.selector import top_k_indices
from cfqa.subcontext import excise_span
from cfqa.tensor import Tensor, using_dtype


@pytest.mark.parametrize("name", list(checks.ALL_CHECKS))
def test_check_passes(name):
    result = checks.ALL_CHECKS[name]()
    assert result.passed, result.line()


# ------------------------------------------------ each oracle catches a fault

def test_topk_check_catches_unsorted_ids(monkeypatch):
    monkeypatch.setattr(checks, "top_k_indices",
                        lambda probs, k: top_k_indices(probs, k)[::-1])
    assert checks.check_topk().passed is False


def test_excision_check_catches_one_extra_token(monkeypatch):
    def drops_one_more(ctx, start, end):
        wider = min(end + 1, ctx.n_tokens - 1)
        if wider - start + 1 >= ctx.n_tokens:
            wider = end
        return excise_span(ctx, start, wider)

    monkeypatch.setattr(checks, "excise_span", drops_one_more)
    assert checks.check_excision().passed is False


def test_excision_check_catches_lost_provenance(monkeypatch):
    # the surviving tokens' offsets in the cut context, not the positions
    # they carried in
    def renumbers_positions(ctx, start, end):
        out = excise_span(ctx, start, end)
        out.positions = [p for p in range(ctx.n_tokens) if not start <= p <= end]
        return out

    monkeypatch.setattr(checks, "excise_span", renumbers_positions)
    result = checks.check_excision()
    assert result.passed is False
    assert "provenance" in result.detail


def test_span_decode_check_catches_one_token_too_long(monkeypatch):
    monkeypatch.setattr(checks, "decode_span",
                        lambda p_s, p_e, max_len: decode_span(p_s, p_e, max_len + 1))
    assert checks.check_span_decode().passed is False


def test_trilinear_check_catches_swapped_weights(monkeypatch):
    def swaps_question_and_context(q, d, w_sim):
        dm = d.data.shape[1]
        w = w_sim.data
        return trilinear_similarity(
            q, d, Tensor(np.concatenate([w[dm:2 * dm], w[:dm], w[2 * dm:]])))

    monkeypatch.setattr(checks, "trilinear_similarity", swaps_question_and_context)
    assert checks.check_trilinear().passed is False


def test_attention_b_check_catches_row_softmax_twice(monkeypatch):
    def row_softmax_twice(s, q, d):
        pair = context_query_attention(s, q, d)
        s_row = T.softmax(s, axis=1)
        pair.b = T.matmul(T.matmul(s_row, T.transpose(s_row)), d)
        return pair

    monkeypatch.setattr(checks, "context_query_attention", row_softmax_twice)
    assert checks.check_attention_b().passed is False


def test_gru_sequence_check_catches_u_gates_gradient_off_by_one_percent(monkeypatch):
    def scales_u_gates_gradient(seq, params, lengths):
        u = params["u_gates"]
        # same forward value, 1.01x the gradient
        same_u = T.sub(T.mul(u, 1.01), Tensor(0.01 * u.data))
        return run_gru(seq, {**params, "u_gates": same_u}, lengths)

    monkeypatch.setattr(checks, "run_gru", scales_u_gates_gradient)
    result = checks.check_gru_sequence()
    assert result.passed is False
    assert "u_gates" in result.detail


def test_gru_sequence_check_catches_skipped_last_row(monkeypatch):
    def skips_last_row(seq, params, lengths):
        short = T.narrow(seq, 0, 0, seq.data.shape[0] - 1)
        return run_gru(short, params, [*lengths[:-1], lengths[-1] - 1])

    monkeypatch.setattr(checks, "run_gru", skips_last_row)
    assert checks.check_gru_sequence().passed is False


def test_gru_sequence_check_catches_a_finished_sequence_that_keeps_stepping(monkeypatch):
    def pads_to_the_longest(seq, params, lengths):
        # every packed sequence runs on through zero rows up to the longest,
        # as a padded batch without per-sequence lengths would
        longest = max(lengths)
        parts, start = [], 0
        for n in lengths:
            pad = Tensor(np.zeros((longest - n, seq.data.shape[1]), dtype=seq.data.dtype))
            parts += [T.narrow(seq, 0, start, start + n), pad]
            start += n
        return run_gru(T.concat(parts, axis=0), params, [longest] * len(lengths))

    monkeypatch.setattr(checks, "run_gru", pads_to_the_longest)
    result = checks.check_gru_sequence()
    assert result.passed is False
    assert "pack of lengths" in result.detail


def test_gru_sequence_check_catches_a_dropped_narrow_last_panel(monkeypatch):
    def whole_panels_only(a, b, b_t):
        n, k = a.shape
        if n not in T._PANEL_ROWS:
            return a @ b
        width = min(T._SMALL_NWK // (n * k), T._SMALL_NW // n)
        out = np.zeros((n, b_t.shape[0]), dtype=a.dtype)
        # panels counted by floor division: a narrower last panel is never
        # written, while a product that does not split comes out right
        for j in range(0, max(1, b_t.shape[0] // width) * width, width):
            out[:, j:j + width] = a @ b_t[j:j + width].T
        return out

    monkeypatch.setattr(T, "_matmul_rows", whole_panels_only)
    result = checks.check_gru_sequence()
    assert result.passed is False
    assert "float32 pack" in result.detail


def test_attention_heads_check_catches_heads_written_back_in_the_wrong_order(
        monkeypatch):
    attention_heads = T.attention_heads

    def reversed_heads(q, k, v, n_heads):
        out = attention_heads(q, k, v, n_heads)
        d_head = out.data.shape[1] // n_heads
        return T.concat([T.narrow(out, 1, h * d_head, (h + 1) * d_head)
                         for h in reversed(range(n_heads))], axis=1)

    monkeypatch.setattr(T, "attention_heads", reversed_heads)
    result = checks.check_attention_heads()
    assert result.passed is False
    assert "output off by" in result.detail


def test_attention_heads_check_catches_a_vjp_recomputing_against_the_wrong_keys(
        monkeypatch):
    # the forward is right; the backward recomputes head h's probabilities
    # against the keys of head n_heads - 1 - h
    attention_heads = T.attention_heads

    def keys_reversed_in_backward(q, k, v, n_heads):
        out = attention_heads(q, k, v, n_heads).data
        m, d = out.shape
        d_head = d // n_heads

        def heads(a):
            return a.reshape(a.shape[0], n_heads, d_head).transpose(1, 0, 2)

        qh, kh, vh = heads(q.data), heads(k.data)[::-1], heads(v.data)

        def vjp(g):
            probs = np.matmul(qh, kh.transpose(0, 2, 1))
            probs = np.exp(probs - probs.max(axis=-1, keepdims=True))
            probs /= probs.sum(axis=-1, keepdims=True)
            gh = heads(g)
            ds = np.matmul(gh, vh.transpose(0, 2, 1))
            ds = (ds - (ds * probs).sum(axis=-1, keepdims=True)) * probs
            dq, dk, dv = (np.matmul(a, b).transpose(1, 0, 2).reshape(-1, d)
                          for a, b in ((ds, heads(k.data)),
                                       (ds.transpose(0, 2, 1), qh),
                                       (probs.transpose(0, 2, 1), gh)))
            return dq, dk, dv

        return T._finish(out, (q, k, v), vjp)

    monkeypatch.setattr(T, "attention_heads", keys_reversed_in_backward)
    result = checks.check_attention_heads()
    assert result.passed is False
    assert re.search(r"\b[qkv] off by", result.detail), result.detail


def test_selector_check_catches_sentences_bleeding_into_each_other(monkeypatch):
    # no zero rows between segments: the convolution at a sentence's last
    # token reads the next segment's question rows
    pack_segments = selector.pack_segments
    monkeypatch.setattr(selector, "pack_segments",
                        lambda m, lengths, gap: pack_segments(m, lengths, 0))
    result = checks.check_selector()
    assert result.passed is False
    assert "logits" in result.detail


def test_selector_check_catches_the_encoders_flat_positions(monkeypatch):
    # the encoder's rows after its own positions, 0..N-1 over the whole
    # context, in place of positions counted within each sentence
    add_positions = selector.add_positions
    monkeypatch.setattr(selector, "add_positions",
                        lambda x, cfg, positions=None: add_positions(x, cfg))
    result = checks.check_selector()
    assert result.passed is False
    # the two numberings differ only in a document of two or more sentences
    n_sent = re.search(r"\((\d+) sentences of lengths", result.detail)
    assert n_sent and int(n_sent.group(1)) >= 2, result.detail


def test_encoder_rows_check_catches_keys_of_the_requested_rows_only(monkeypatch):
    # a row subset attends only among itself, as if the rows it does not
    # read were not in the sequence
    self_attention = encoder.self_attention

    def keys_of_the_query_rows(x, n_heads, store, prefix, rows=None, keys=None,
                               **kw):
        if rows is not None:
            x, rows, keys = T.embedding(x, rows), None, None
        return self_attention(x, n_heads, store, prefix, rows=rows, keys=keys, **kw)

    monkeypatch.setattr(encoder, "self_attention", keys_of_the_query_rows)
    result = checks.check_encoder_rows()
    assert result.passed is False
    assert "output off by" in result.detail


def test_packed_update_check_catches_next_value_from_the_wrong_row(monkeypatch):
    # the update's episodes read as one, so each episode's last step takes
    # the next episode's first value as its next value
    update = train.actor_critic_update

    def episodes_run_together(log_probs, values, rewards, lengths, gamma):
        return update(log_probs, values, rewards, [sum(lengths)], gamma)

    monkeypatch.setattr(train, "actor_critic_update", episodes_run_together)
    result = checks.check_packed_update()
    assert result.passed is False
    assert "loss off by" in result.detail


def test_gradient_end_to_end_check_catches_a_loss_without_the_selector_term(
        monkeypatch):
    # with no selector term, no gradient reaches a sel.* parameter and nothing
    # moves the loss along one either: finite differences agree with the
    # zero, so only the all-zero rule can fail the check
    monkeypatch.setattr(checks, "_gold_sentence_nll", lambda *args: Tensor(0.0))
    result = checks.check_gradient_end_to_end()
    assert result.passed is False
    assert "all-zero gradient" in result.detail and "'sel." in result.detail


# ------------------------------------------------------- finite differences

def test_finite_diff_report_names_the_failing_tensor():
    with using_dtype(np.float64):
        good = Tensor([0.5, -1.0], requires_grad=True)
        bad = Tensor([2.0, 3.0], requires_grad=True)

        def loss():
            # the value reads ``bad`` once, the tape credits it twice
            miscounted = T.sub(T.mul(bad, 2.0), Tensor(bad.data.copy()))
            return T.add(T.reduce_sum(T.square(good)), T.reduce_sum(miscounted))

        named = checks.finite_diff_grads(loss, {"good": good, "bad": bad})
        listed = checks.finite_diff_grads(loss, [good, bad])
    assert [(r["param"], r["ok"]) for r in named] == [("good", True), ("bad", False)]
    assert [(r["param"], r["ok"]) for r in listed] == [("#0", True), ("#1", False)]
