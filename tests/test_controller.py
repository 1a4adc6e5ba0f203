import numpy as np
import pytest

from cfqa import tensor as T
from cfqa.checks import finite_diff_grads
from cfqa.controller import (actor_critic_update, actor_policy, build_state,
                             create_controller_params, critic_value, entropy_of)
from cfqa.encoder import EncoderConfig, create_encoder_params, encode_tokens
from cfqa.errors import ContractError
from cfqa.metrics import best_f1
from cfqa.params import ParamStore
from cfqa.tensor import Tape, Tensor, using_dtype

D_MODEL, GRU = 6, 5
ENC = EncoderConfig(d1=4, d2=3, d_model=D_MODEL, k_s=3, n_heads=2)


@pytest.fixture
def store():
    s = ParamStore()
    rng = np.random.default_rng(0)
    create_controller_params(s, D_MODEL, GRU, rng)
    create_encoder_params(s, ENC, 40, 5, rng)
    return s


def rows(rng, n):
    return Tensor(rng.normal(0, 1, (n, D_MODEL)))


def encoding(store, rng, n):
    """A context encoding of ``n`` random tokens."""
    return encode_tokens(rng.integers(3, 40, size=n), rng.integers(1, 5, size=(n, 2)),
                         ENC, store)


# -------------------------------------------------------------------- state

def test_state_length_is_ctx_plus_sep_plus_question(store):
    rng = np.random.default_rng(1)
    state = build_state(encoding(store, rng, 7), rows(rng, 3), store)
    assert state.data.shape == (7 + 1 + 3, D_MODEL)


def test_state_head_tail_truncation(store):
    rng = np.random.default_rng(2)
    ctx = encoding(store, rng, 20)
    state = build_state(ctx, rows(rng, 2), store, max_state_tokens=6)
    assert state.data.shape == (6 + 1 + 2, D_MODEL)
    full = ctx.matrix.data
    assert np.array_equal(state.data[:3], full[:3])     # head
    assert np.array_equal(state.data[3:6], full[-3:])   # tail


def test_separator_row_is_the_learned_parameter(store):
    rng = np.random.default_rng(3)
    state = build_state(encoding(store, rng, 4), rows(rng, 2), store)
    assert np.array_equal(state.data[4], store["state.sep"].data)


# -------------------------------------------------------------------- policy

def test_zero_head_gives_uniform_policy(store):
    store["actor.head_w"].data[:] = 0.0
    store["actor.head_b"].data[:] = 0.0
    probs, _ = actor_policy(rows(np.random.default_rng(4), 3), store, None, [3])
    assert probs.data.shape == (1, 3)
    assert np.allclose(probs.data, 1.0 / 3.0, atol=1e-6)


def test_policy_probabilities_sum_to_one(store):
    probs, _ = actor_policy(rows(np.random.default_rng(5), 4), store, None, [4])
    assert abs(float(probs.data.sum()) - 1.0) < 1e-6


def test_masked_action_has_probability_exactly_zero(store):
    mask = np.array([[True, False, True]])
    probs, _ = actor_policy(rows(np.random.default_rng(6), 3), store, mask, [3])
    assert probs.data[0, 1] == 0.0
    assert abs(float(probs.data.sum()) - 1.0) < 1e-6


def test_zero_critic_head_gives_zero_value(store):
    store["critic.head_w"].data[:] = 0.0
    store["critic.head_b"].data[:] = 0.0
    v = critic_value(rows(np.random.default_rng(7), 3), store, [3])
    assert v.data.tolist() == [0.0]


# -------------------------------------------------------------------- reward
# an answer earns its F1 against the best gold answer; a SELECT or an
# EXCISE earns 1 when the context it leaves still holds a gold answer

def test_reward_exact_answer_is_one():
    assert best_f1([5, 6], [[5, 6]]) == 1.0


def test_reward_disjoint_answer_is_zero():
    assert best_f1([7, 8], [[5, 6]]) == 0.0


def test_reward_half_overlap_is_half():
    # prediction {x, y}, gold {y, z}: precision .5, recall .5, F1 .5
    assert best_f1([1, 2], [[2, 3]]) == pytest.approx(0.5)


def test_reward_best_gold_wins():
    assert best_f1([5, 6], [[9, 9, 9], [5, 6]]) == 1.0


# -------------------------------------------------------------------- update

def _update(log_probs, values, rewards, lengths, gamma=0.9):
    return actor_critic_update(Tensor(np.log(log_probs)), Tensor(values),
                               rewards, lengths, gamma)


def test_single_terminal_transition_losses():
    la, lc, deltas = _update([0.4], [0.0], [1.0], [1])
    assert la.item() == pytest.approx(-np.log(0.4) * 1.0)
    assert lc.item() == pytest.approx(1.0)
    assert deltas.tolist() == [pytest.approx(1.0)]


def test_zero_advantage_zeroes_both_losses():
    la, lc, deltas = _update([0.2], [0.7], [0.7], [1])
    assert la.item() == pytest.approx(0.0, abs=1e-6)
    assert lc.item() == pytest.approx(0.0, abs=1e-12)
    assert deltas.tolist() == [pytest.approx(0.0, abs=1e-6)]


def test_multi_step_discounting():
    la, lc, deltas = _update([0.5, 0.8], [0.2, 0.6], [0.0, 1.0], [2])
    assert deltas[0] == pytest.approx(0.0 + 0.9 * 0.6 - 0.2)
    assert deltas[1] == pytest.approx(1.0 - 0.6)
    assert lc.item() == pytest.approx(deltas[0] ** 2 + deltas[1] ** 2)
    assert la.item() == pytest.approx(-np.log(0.5) * deltas[0]
                                      - np.log(0.8) * deltas[1])


def test_gradients_keep_the_tensors_dtype_and_stop_at_the_advantage():
    log_probs = Tensor(np.log([0.5, 0.8]), requires_grad=True)
    values = Tensor([0.2, 0.6], requires_grad=True)
    with Tape() as tape:
        la, lc, deltas = actor_critic_update(log_probs, values, [0.0, 1.0], [2], 0.9)
        tape.backward(T.add(la, lc))
    # the TD errors are float64; the float32 tensors' gradients stay float32
    assert deltas.dtype == np.float64
    assert log_probs.grad.dtype == values.grad.dtype == np.float32
    np.testing.assert_allclose(log_probs.grad, -deltas, rtol=1e-6)
    # only the critic term reaches the values: d(td0^2 + td1^2)/dv
    np.testing.assert_allclose(values.grad, [-2 * deltas[0],
                                             2 * (0.9 * deltas[0] - deltas[1])],
                               rtol=1e-6)


def test_packed_episodes_sum_their_own_losses():
    # the first episode's last step must not read the second's first value
    first = ([0.5, 0.8], [0.2, 0.6], [0.0, 1.0])
    second = ([0.3, 0.6, 0.9], [0.4, 0.1, 0.5], [0.0, 0.0, 0.25])
    both = [a + b for a, b in zip(first, second)]
    alone = [_update(*episode, [len(episode[0])]) for episode in (first, second)]
    la, lc, deltas = _update(*both, [2, 3])
    assert la.item() == pytest.approx(alone[0][0].item() + alone[1][0].item())
    assert lc.item() == pytest.approx(alone[0][1].item() + alone[1][1].item())
    assert deltas.tolist() == pytest.approx(alone[0][2].tolist() + alone[1][2].tolist())
    # read as one episode, the first's last step sees a next value
    assert _update(*both, [5])[1].item() != pytest.approx(lc.item())


def test_empty_trajectory_rejected():
    with pytest.raises(ContractError):
        _update([], [], [], [])


@pytest.mark.parametrize("lengths", [[], [1], [2, 2], [0, 3], [3, 0], [-1, 4]])
def test_lengths_that_do_not_split_the_rows_are_rejected(lengths):
    with pytest.raises(ContractError):
        _update([0.5, 0.8, 0.4], [0.2, 0.6, 0.1], [0.0, 0.0, 1.0], lengths)


@pytest.mark.parametrize("log_probs, values, rewards", [
    ([0.5, 0.8], [0.2, 0.6, 0.1], [0.0, 0.0, 1.0]),
    ([0.5, 0.8, 0.4], [0.2, 0.6], [0.0, 0.0, 1.0]),
    ([0.5, 0.8, 0.4], [0.2, 0.6, 0.1], [0.0, 1.0]),
    ([[0.5, 0.8, 0.4]], [[0.2, 0.6, 0.1]], [[0.0, 0.0, 1.0]]),
])
def test_mismatched_shapes_are_rejected(log_probs, values, rewards):
    with pytest.raises(ContractError):
        _update(log_probs, values, rewards, [len(rewards)])


def test_actor_gradient_matches_fd_with_frozen_delta(store):
    with using_dtype(np.float64):
        s = ParamStore()
        create_controller_params(s, D_MODEL, GRU, np.random.default_rng(8))
        state_data = np.random.default_rng(9).normal(0, 1, (4, D_MODEL))
        frozen = [0.37]

        def loss():
            lengths = [state_data.shape[0]]
            probs, logp = actor_policy(Tensor(state_data), s, None, lengths)
            v = critic_value(Tensor(state_data), s, lengths)
            la, _, _ = actor_critic_update(T.pick(logp, ([0], [1])), v, [1.0],
                                           [1], 0.9, frozen_deltas=frozen)
            return la

        # every coordinate of every actor parameter
        actor_params = [s[n] for n in s.names() if n.startswith("actor.")]
        reports = finite_diff_grads(loss, actor_params, h=1e-5)
        assert all(r["ok"] for r in reports), reports


def test_critic_perturbation_changes_actor_loss_value_not_direction(store):
    with using_dtype(np.float64):
        s = ParamStore()
        create_controller_params(s, D_MODEL, GRU, np.random.default_rng(11))
        state_data = np.random.default_rng(12).normal(0, 1, (3, D_MODEL))

        def actor_grads(frozen):
            for n in s.names():
                s[n].grad = None
            with Tape() as tape:
                lengths = [state_data.shape[0]]
                probs, logp = actor_policy(Tensor(state_data), s, None, lengths)
                v = critic_value(Tensor(state_data), s, lengths)
                la, _, deltas = actor_critic_update(T.pick(logp, ([0], [0])), v, [1.0],
                                                    [1], 0.9, frozen_deltas=frozen)
                tape.backward(la)
            return ({n: s[n].grad.copy() for n in s.names()
                     if n.startswith("actor.") and s[n].grad is not None},
                    float(la.item()), deltas)

        grads_before, loss_before, _ = actor_grads([0.5])
        s["critic.head_w"].data += 0.3
        grads_after, loss_after, _ = actor_grads([0.5])
        for name in grads_before:
            assert np.allclose(grads_before[name], grads_after[name])
        # with a live delta the loss VALUE shifts when the critic moves
        _, live_before, d0 = actor_grads(None)
        s["critic.head_w"].data += 0.3
        _, live_after, d1 = actor_grads(None)
        assert d0[0] != d1[0] and live_before != live_after


def test_entropy_handles_masked_actions():
    probs = Tensor(np.array([0.5, 0.0, 0.5]))
    logp = Tensor(np.array([np.log(0.5), -1e30, np.log(0.5)]))
    h = entropy_of(probs, logp)
    assert h.item() == pytest.approx(np.log(2), rel=1e-6)
