"""What a ParamStore holds: the parameters, a slot only for a parameter that
has taken an optimizer step, and no copy of either to build or digest
them."""

import tracemalloc

import numpy as np
import pytest

from cfqa.checks import toy_vocab
from cfqa.config import RunConfig
from cfqa.model import QaModel
from cfqa.params import ParamStore, uniform_fan_in
from cfqa.tensor import using_dtype


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _two_dtype_store() -> ParamStore:
    store = ParamStore()
    rng = np.random.default_rng(8)
    store.create("a", (300, 40), rng)
    with using_dtype(np.float64):
        store.create("b", (50, 7), rng)
    store.create("c", (9,), rng, fan_in=0)
    return store


def test_a_paper_size_model_holds_its_parameters_and_no_slots(traced):
    model = QaModel(RunConfig(), toy_vocab())
    held, _ = tracemalloc.get_traced_memory()
    payload = sum(p.data.nbytes for _, p in model.store.items())
    assert model.store._slots == {}
    assert held < 1.25 * payload, (held, payload)


def test_building_a_paper_size_model_holds_no_float64_copy_of_a_parameter(traced):
    # each parameter is drawn in float64 blocks straight into its float32
    # array; one float64 draw of the largest would peak at ~1.3x the payload
    model = QaModel(RunConfig(), toy_vocab())
    _, peak = tracemalloc.get_traced_memory()
    payload = sum(p.data.nbytes for _, p in model.store.items())
    assert peak <= 1.1 * payload, (peak, payload)


@pytest.mark.parametrize("shape", [(512, 1024), (7, 96, 128), (16385,), (1,), ()])
def test_blocked_draws_are_one_draw_of_the_shape(shape):
    # so the seeded initialisation, and every digest after it, is unchanged
    blocked, whole = np.random.default_rng(21), np.random.default_rng(21)
    got = uniform_fan_in(blocked, shape, 9, np.float32)
    want = whole.uniform(-1 / 3, 1 / 3, size=shape).astype(np.float32)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert blocked.random() == whole.random()


def test_a_refused_first_step_makes_no_slot():
    store = _two_dtype_store()
    for name in store.names():
        store[name].grad = np.ones_like(store[name].data)
    store["b"].grad[3, 1] = np.inf
    assert store.apply_gradients() == 0
    assert store._slots == {}
    store["b"].grad = np.full_like(store["b"].data, 0.5)
    assert store.apply_gradients() == 1
    assert set(store._slots) == {"b"}
    assert store._slots["b"].accum_grad_sq.dtype == np.float64


def test_state_bytes_is_the_join_of_every_payload():
    store = _two_dtype_store()
    assert {p.data.dtype for _, p in store.items()} == {np.dtype(np.float32),
                                                       np.dtype(np.float64)}
    want = b"".join(p.data.tobytes() for _, p in store.items())
    assert store.state_bytes() == want


def test_state_bytes_makes_no_copy_of_each_parameter(traced):
    store = _two_dtype_store()
    payload = sum(p.data.nbytes for _, p in store.items())
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    digest = store.state_bytes()
    _, peak = tracemalloc.get_traced_memory()
    assert len(digest) == payload
    assert peak - before <= 1.1 * payload, (peak - before, payload)
