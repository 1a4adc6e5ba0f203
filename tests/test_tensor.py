import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfqa import tensor as T
from cfqa.checks import finite_diff_grads
from cfqa.errors import ContractError, ShapeError
from cfqa.nn import create_gru, gru_params, run_gru
from cfqa.optim import AdaDeltaSlot, adadelta_update
from cfqa.params import ParamStore
from cfqa.tensor import Tape, Tensor, using_dtype


@pytest.fixture
def f64():
    with using_dtype(np.float64):
        yield


def assert_fd_match(loss_fn, params):
    reports = finite_diff_grads(loss_fn, params)
    assert all(r["ok"] for r in reports), reports


# ---------------------------------------------------------------------- matmul

def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_row_times_column():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert T.matmul(a, b).data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_gradient_matches_closed_form_and_fd(f64):
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.normal(0, 1, (4, 2)), requires_grad=True)

    def loss():
        return T.reduce_sum(T.matmul(a, b))

    with Tape() as tape:
        tape.backward(loss())
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    assert_fd_match(loss, [a, b])


# -------------------------------------------------------------------- embedding

def _embedding_grad(table, ids, g):
    with Tape() as tape:
        out = T.embedding(table, ids)
        tape.backward(T.reduce_sum(T.mul(out, Tensor(g))))
    return table.grad


@pytest.mark.parametrize("shape", [(12,), (4, 6), (0,)])
def test_embedding_gradient_sums_rows_per_id_as_add_at_does(shape):
    # integer-valued gradients sum exactly in any order, so the per-id sums
    # must equal np.add.at's bit for bit; repeated and absent ids included
    rng = np.random.default_rng(0)
    table = Tensor(rng.normal(0, 1, (7, 3)), requires_grad=True)
    ids = rng.integers(0, 5, size=shape)
    g = rng.integers(-50, 50, size=(*shape, 3)).astype(np.float32)
    want = np.zeros((7, 3), dtype=np.float32)
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 3))
    got = _embedding_grad(table, ids, g)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_embedding_gradient_matches_add_at_within_float32_rounding():
    rng = np.random.default_rng(1)
    table = Tensor(rng.normal(0, 1, (40, 16)), requires_grad=True)
    ids = rng.integers(0, 40, size=(30, 9))
    g = rng.normal(0, 1, (30, 9, 16)).astype(np.float32)
    want = np.zeros((40, 16), dtype=np.float32)
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 16))
    np.testing.assert_allclose(_embedding_grad(table, ids, g), want,
                               rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------- conv1d

def conv1d_oracle(x, f):
    k, d_in, d_out = f.shape
    half = k // 2
    length = x.shape[0]
    out = np.zeros((length, d_out))
    for t in range(length):
        for dt in range(k):
            src = t + dt - half
            if 0 <= src < length:
                out[t] += x[src] @ f[dt]
    return out


def test_conv1d_zero_input_zero_output():
    x = Tensor(np.zeros((4, 3)))
    f = Tensor(np.random.default_rng(0).normal(0, 1, (3, 3, 2)))
    assert np.array_equal(T.conv1d(x, f).data, np.zeros((4, 2)))


def test_conv1d_identity_kernel_selects_column():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(0, 1, (5, 3)))
    f = np.zeros((1, 3, 1))
    f[0, 1, 0] = 1.0  # single filter copying input column 1
    out = T.conv1d(x, Tensor(f))
    assert np.allclose(out.data[:, 0], x.data[:, 1])


def test_conv1d_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, (5, 3))
    f = rng.normal(0, 1, (3, 3, 4))
    got = T.conv1d(Tensor(x), Tensor(f)).data
    assert np.allclose(got, conv1d_oracle(x, f), atol=1e-5)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ShapeError):
        T.conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 2))))


def test_conv1d_gradients_match_fd(f64):
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(0, 1, (5, 2)), requires_grad=True)
    f = Tensor(rng.normal(0, 1, (3, 2, 3)), requires_grad=True)

    def loss():
        return T.reduce_sum(T.square(T.conv1d(x, f)))

    assert_fd_match(loss, [x, f])


# --------------------------------------------------------------------- softmax

def test_softmax_symmetry():
    assert np.allclose(T.softmax(Tensor([0.0, 0.0]), axis=0).data, [0.5, 0.5])


def test_softmax_large_logits_stable():
    out = T.softmax(Tensor([1000.0, 0.0]), axis=0).data
    assert np.isfinite(out).all()
    assert out[0] > 0.999 and out[1] < 1e-6


def test_softmax_matches_naive_formula():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 2, 7)
    naive = np.exp(x) / np.exp(x).sum()
    assert np.allclose(T.softmax(Tensor(x), axis=0).data, naive, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=9))
def test_softmax_outputs_probability_simplex(values):
    out = T.softmax(Tensor(values), axis=0).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-6


def test_masked_softmax_zeroes_masked_positions():
    mask = np.array([True, False, True])
    out = T.softmax(Tensor([1.0, 5.0, 2.0]), axis=0, mask=mask).data
    assert out[1] == 0.0
    assert abs(out.sum() - 1.0) < 1e-6


# -------------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.reduce_sum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_sum_of_squares_gives_2w():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(T.reduce_sum(T.mul(w, w)))
    assert np.allclose(w.grad, 2 * w.data)


def test_backward_rejects_non_scalar_loss():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = T.mul(w, 2.0)
        with pytest.raises(ContractError):
            tape.backward(out)


def test_a_spent_tape_refuses_a_second_backward():
    # the sweep releases every op as it goes, so a second sweep would find
    # nothing to run; it must not add the leaf gradients again either
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(w, w))
        tape.backward(loss)
        assert np.array_equal(w.grad, [2.0, 4.0])
        with pytest.raises(ContractError):
            tape.backward(loss)
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_backward_scalar_value_reused_in_two_terms(f64):
    # regression: 0-d accumulation buffers must be mutable arrays
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(0, 1, 4), requires_grad=True)
    x1 = Tensor(rng.normal(0, 1, 4))
    x2 = Tensor(rng.normal(0, 1, 4))

    def loss():
        v = T.matmul(x1, w)
        v2 = T.matmul(x2, w)
        t1 = T.square(T.sub(T.mul(v2, 0.9), v))
        t2 = T.square(T.sub(0.7, v2))
        return T.add(t1, t2)

    assert_fd_match(loss, [w])


def test_a_wider_constant_leaves_the_gradient_in_the_parents_dtype():
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    c = Tensor(np.full((3, 1), 0.5), dtype=np.float64)
    with Tape() as tape:
        loss = T.reduce_sum(T.matmul(x, c))
        tape.backward(loss)
    assert loss.data.dtype == x.grad.dtype == np.float32
    assert np.array_equal(x.grad, np.full((2, 3), 0.5))


def test_leaf_off_the_loss_path_gets_no_gradient():
    used = Tensor([1.0], requires_grad=True)
    unused = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(T.reduce_sum(T.mul(used, 3.0)))
    assert used.grad is not None
    assert unused.grad is None


# ------------------------------------------------------------------------ gru

def _zero_gru_params(d_x, d_h, b_cand=None):
    zeros = {
        "w_gates": Tensor(np.zeros((d_x, 2 * d_h))),
        "u_gates": Tensor(np.zeros((d_h, 2 * d_h))),
        "b_gates": Tensor(np.zeros(2 * d_h)),
        "w_cand": Tensor(np.zeros((d_x, d_h))),
        "u_cand": Tensor(np.zeros((d_h, d_h))),
        "b_cand": Tensor(np.zeros(d_h) if b_cand is None else b_cand),
    }
    return zeros


def test_gru_zero_parameters_halve_the_state(f64):
    # all weights zero: z = r = 0.5 and cand = tanh(b_cand), so each row
    # halves the gap to tanh(b_cand) and h_L = (1 - 0.5^L) tanh(b_cand)
    b_cand = np.array([0.4, -0.8, 1.2])
    rng = np.random.default_rng(7)
    for length in (0, 1, 2, 5):
        seq = Tensor(rng.normal(0, 1, (length, 2)))
        out = run_gru(seq, _zero_gru_params(2, 3, b_cand), [length])
        assert np.allclose(out.data, (1.0 - 0.5 ** length) * np.tanh(b_cand))


def test_gru_gradients_match_fd(f64):
    store = ParamStore()
    rng = np.random.default_rng(5)
    create_gru(store, "g", 3, 4, rng)
    seq = Tensor(rng.normal(0, 1, (3, 3)), requires_grad=True)

    def loss():
        return T.reduce_sum(run_gru(seq, gru_params(store, "g"), [3]))

    assert_fd_match(loss, {**gru_params(store, "g"), "seq": seq})


def test_gru_converges_to_fixed_point_on_constant_input():
    store = ParamStore()
    rng = np.random.default_rng(6)
    create_gru(store, "g", 3, 5, rng)
    for name in store.names():
        store[name].data *= 0.1
    params = gru_params(store, "g")
    rows = np.tile(rng.normal(0, 1, 3), (201, 1))
    h_200 = run_gru(Tensor(rows[:200]), params, [200])
    h_201 = run_gru(Tensor(rows), params, [201])
    assert np.linalg.norm(h_201.data - h_200.data) < 1e-5


def test_gru_input_width_mismatch_raises():
    with pytest.raises(ShapeError):
        run_gru(Tensor(np.zeros((3, 4))), _zero_gru_params(2, 3), [3])


@pytest.mark.parametrize("lengths", [[3, -1], [1, 2], [1], [[1, 1]], [1.0, 1.0]])
def test_gru_bad_packed_lengths_raise(lengths):
    # two rows: a negative length, a sum off by one either way, a 2-D list
    # and non-integer lengths are all refused
    with pytest.raises(ShapeError):
        run_gru(Tensor(np.zeros((2, 2))), _zero_gru_params(2, 3), lengths)


def test_gru_packed_states_match_each_sequence_alone(f64):
    store = ParamStore()
    rng = np.random.default_rng(8)
    create_gru(store, "g", 3, 4, rng)
    params = gru_params(store, "g")
    lengths = [0, 3, 1, 3, 0, 2]
    seq = Tensor(rng.normal(0, 1, (sum(lengths), 3)))
    packed = run_gru(seq, params, lengths)
    assert packed.shape == (len(lengths), 4)
    starts = np.cumsum([0] + lengths[:-1])
    for row, start, n in zip(packed.data, starts, lengths):
        alone = run_gru(Tensor(seq.data[start:start + n]), params, [n])
        np.testing.assert_allclose(row, alone.data[0], rtol=1e-12, atol=1e-15)
    assert not packed.data[0].any() and not packed.data[4].any()


def test_one_sequence_runs_the_one_product_loop_bit_for_bit():
    # every step of a single sequence has one row, so none splits into panels
    rng = np.random.default_rng(7)
    d_x, d_h, n = 128, 512, 12
    weights = [rng.normal(0, 0.05, shape).astype(np.float32)
               for shape in ((d_x, 2 * d_h), (d_h, 2 * d_h), (2 * d_h,),
                             (d_x, d_h), (d_h, d_h), (d_h,))]
    wg, ug, bg, wc, uc, bc = weights
    seq = rng.normal(0, 1, (n, d_x)).astype(np.float32)
    x_gates = seq @ wg
    x_gates += bg
    x_cand = seq @ wc
    x_cand += bc
    h = np.zeros((1, d_h), dtype=np.float32)
    for t in range(n):
        gates = 1.0 / (1.0 + np.exp(-(x_gates[t:t + 1] + h @ ug)))
        z, r = gates[:, :d_h], gates[:, d_h:]
        c = np.tanh(x_cand[t:t + 1] + (r * h) @ uc)
        h = (1.0 - z) * h + z * c
    out = T.gru_sequence(Tensor(seq), [n], *(Tensor(w) for w in weights))
    assert np.array_equal(out.data, h)


def test_gru_keeps_bptt_buffers_only_for_a_tape():
    import tracemalloc

    store = ParamStore()
    rng = np.random.default_rng(9)
    create_gru(store, "g", 8, 64, rng)
    params = gru_params(store, "g")
    lengths = [200, 150, 180, 120, 200, 90, 160, 140]
    seq = Tensor(rng.normal(0, 1, (sum(lengths), 8)))

    def peak_bytes(run):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def recorded():
        with Tape():
            return run_gru(seq, params, lengths)

    plain, plain_peak = peak_bytes(lambda: run_gru(seq, params, lengths))
    taped, taped_peak = peak_bytes(recorded)
    assert taped.requires_grad and not plain.requires_grad
    assert np.array_equal(plain.data, taped.data)
    assert plain_peak < 0.5 * taped_peak, (plain_peak, taped_peak)


# ------------------------------------------------------------------- adadelta

def test_adadelta_zero_gradient_leaves_parameter_decays_accumulators():
    param = np.array([1.0, -2.0], dtype=np.float32)
    slot = AdaDeltaSlot((2,))
    slot.accum_grad_sq[:] = 0.5
    slot.accum_update_sq[:] = 0.25
    adadelta_update(param, np.zeros(2, dtype=np.float32), slot)
    assert np.array_equal(param, [1.0, -2.0])
    assert np.allclose(slot.accum_grad_sq, 0.95 * 0.5)
    assert np.allclose(slot.accum_update_sq, 0.95 * 0.25)


def test_adadelta_first_step_closed_form():
    g = np.array([0.3, -1.7, 0.02], dtype=np.float64)
    param = np.zeros(3)
    slot = AdaDeltaSlot((3,), np.float64)
    adadelta_update(param, g, slot)
    expected = -(np.sqrt(1e-6) / np.sqrt(0.05 * g * g + 1e-6)) * g
    assert np.allclose(param, expected, rtol=1e-7)


def test_adadelta_descends_scalar_quadratic():
    # minimize (w - 3)^2 from w = 0
    param = np.array([0.0])
    slot = AdaDeltaSlot((1,), np.float64)
    losses = []
    for _ in range(50):
        grad = 2 * (param - 3.0)
        adadelta_update(param, grad, slot)
        losses.append(float((param[0] - 3.0) ** 2))
    for i in range(5, 49):
        assert losses[i + 1] <= losses[i]
    assert losses[-1] < losses[4]


# ---------------------------------------------------------------- determinism

def test_param_store_bit_identical_after_updates():
    def build_and_step():
        store = ParamStore()
        rng = np.random.default_rng(42)
        store.create("a", (4, 3), rng)
        store.create("b", (3,), rng, fan_in=0)
        for step in range(10):
            for name in store.names():
                p = store[name]
                p.grad = np.full_like(p.data, 0.01 * (step + 1))
            store.apply_gradients()
        return store.state_bytes()

    assert build_and_step() == build_and_step()


def test_param_store_skips_a_step_with_a_nonfinite_gradient():
    def build():
        store = ParamStore()
        rng = np.random.default_rng(3)
        store.create("a", (4, 3), rng)
        store.create("b", (3,), rng)
        return store

    def step(store, value, nan_at=None):
        for name in store.names():
            store[name].grad = np.full_like(store[name].data, value)
        if nan_at is not None:
            store[nan_at].grad[1] = np.nan
        return store.apply_gradients()

    store, reference = build(), build()
    step(store, 0.01)
    step(reference, 0.01)
    before = store.state_bytes()
    slots = {name: (slot.accum_grad_sq.copy(), slot.accum_update_sq.copy())
             for name, slot in store._slots.items()}

    assert step(store, 0.02, nan_at="b") == 0
    assert store.skipped_nonfinite == 1
    assert store.state_bytes() == before
    for name, (grad_sq, update_sq) in slots.items():
        assert np.array_equal(store._slots[name].accum_grad_sq, grad_sq)
        assert np.array_equal(store._slots[name].accum_update_sq, update_sq)
    assert all(store[name].grad is None for name in store.names())

    # the next finite step applies as if the refused one never happened
    assert step(store, 0.02) == 2
    step(reference, 0.02)
    assert store.state_bytes() == reference.state_bytes()
    assert store.skipped_nonfinite == 1


def test_tape_exclusive_per_thread():
    with Tape():
        with pytest.raises(ContractError):
            with Tape():
                pass
