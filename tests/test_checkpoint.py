"""Checkpoint files: a bit-exact round trip, and a DataError for any bad file."""

import numpy as np
import pytest

from cfqa import tensor as T
from cfqa.checks import tiny_config, tiny_example, toy_vocab
from cfqa.episode import evaluate
from cfqa.errors import ContractError, DataError
from cfqa.model import QaModel
from cfqa.params import load_checkpoint, restore_into, save_checkpoint


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    cfg = tiny_config(seed=1)
    model = QaModel(cfg, toy_vocab(), seed=1)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, model.store, cfg.hash())
    return cfg, model, path


def test_round_trip_restores_every_value_and_every_eval_row(saved):
    cfg, model, path = saved
    params, config_hash = load_checkpoint(path)
    assert config_hash == cfg.hash()
    assert not any(arr.flags.writeable for arr in params.values())
    other = QaModel(cfg, toy_vocab(), seed=2)
    assert other.store.state_bytes() != model.store.state_bytes()
    arrays = {name: p.data for name, p in other.store.items()}
    restore_into(other.store, params)
    assert other.store.state_bytes() == model.store.state_bytes()
    for name, p in other.store.items():     # written in place, same dtype
        assert p.data is arrays[name] and p.data.dtype == model.store[name].data.dtype
    rng = np.random.default_rng(4)
    dataset = [tiny_example(rng, model.vocab) for _ in range(6)]
    for i, ex in enumerate(dataset):
        ex.id = f"c{i}"
    assert evaluate(other, dataset, cfg) == evaluate(model, dataset, cfg)


def test_a_restore_inside_a_fixed_weights_block_raises_and_writes_nothing(saved):
    cfg, model, path = saved
    params, _ = load_checkpoint(path)
    other = QaModel(cfg, toy_vocab(), seed=2)
    before = other.store.state_bytes()
    with T.fixed_weights() as held:
        held.transposed(other.store["actor.gru.u_gates"])
        with pytest.raises(ContractError):
            restore_into(other.store, params)
    assert other.store.state_bytes() == before
    restore_into(other.store, params)
    assert other.store.state_bytes() == model.store.state_bytes()


@pytest.mark.parametrize("cut", [3, 12, 40, -3])
def test_truncated_file_is_a_data_error(saved, tmp_path, cut):
    _, _, path = saved
    blob = path.read_bytes()
    short = tmp_path / "short.ckpt"
    short.write_bytes(blob[:cut])
    with pytest.raises(DataError):
        load_checkpoint(short)


@pytest.mark.parametrize("damage", ["magic", "trailing", "name", "dtype", "duplicate"])
def test_damaged_file_is_a_data_error(saved, tmp_path, damage):
    _, model, path = saved
    blob = bytearray(path.read_bytes())
    hash_len = int.from_bytes(blob[8:10], "little")
    name_at = 8 + 2 + hash_len + 4 + 2     # the first parameter's name
    name_len = int.from_bytes(blob[name_at - 2:name_at], "little")
    if damage == "magic":
        blob[:8] = b"CFQACKP0"
    elif damage == "trailing":
        blob += b"\0"
    elif damage == "name":
        blob[name_at] = 0xFF               # not utf-8
    elif damage == "dtype":
        blob[name_at + name_len] = 7       # no such dtype code
    else:
        # the second parameter takes the first one's name (same length)
        first, second = model.store.names()[:2]
        assert len(first) == len(second)
        second_at = blob.index(second.encode(), name_at + name_len)
        blob[second_at:second_at + len(second)] = first.encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_checkpoint(bad)
