"""The cfqa command line and the config file format, end to end."""

import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from cfqa.checks import tiny_config
from cfqa.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from cfqa.config import RunConfig, apply_overrides, load_config, save_config
from cfqa.encoder import EncoderConfig
from cfqa.errors import ConfigError


def tiny_set_args() -> list[str]:
    """``--set`` pairs for every key where the tiny config differs."""
    tiny, default = tiny_config(), RunConfig()
    args = []
    for f in fields(RunConfig):
        if getattr(tiny, f.name) != getattr(default, f.name):
            args += ["--set", f"{f.name}={getattr(tiny, f.name)}"]
    return args


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    data = root / "train.jsonl"
    assert main(["gen-data", "--out", str(data), "--n-docs", "4",
                 "--sentences", "2", "3", "--tokens", "4", "5",
                 "--vocab-size", "50", "--seed", "1"]) == EXIT_OK
    run_dir = root / "r"
    assert main(["train", *tiny_set_args(), "--train", str(data),
                 "--updates", "1", "--out", str(run_dir)]) == EXIT_OK
    return data, run_dir


def eval_args(trained_run, tmp_path, *extra):
    data, run_dir = trained_run
    return ["eval", "--checkpoint", str(run_dir / "model.ckpt"),
            "--dataset", str(data), "--out", str(tmp_path / "eval"), *extra]


def test_eval_accepts_a_change_to_run_plumbing(trained_run, tmp_path):
    _, run_dir = trained_run
    code = main(eval_args(trained_run, tmp_path,
                          "--config", str(run_dir / "config.txt"), "--seed", "3"))
    assert code == EXIT_OK
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert 0.0 <= metrics["f1"] <= 1.0


def test_eval_refuses_a_change_to_the_model_shape(trained_run, tmp_path, capsys):
    code = main(eval_args(trained_run, tmp_path, *tiny_set_args(),
                          "--set", "gru_size=7"))
    assert code == EXIT_USAGE
    assert "config hash" in capsys.readouterr().err


@pytest.mark.parametrize("force", [False, True])
def test_eval_refuses_a_vocab_of_the_same_size_with_other_ids(trained_run, tmp_path,
                                                              capsys, force):
    _, run_dir = trained_run
    payload = json.loads((run_dir / "vocab.json").read_text())
    payload["words"] = payload["words"][::-1]
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(payload))
    code = main(eval_args(trained_run, tmp_path, "--config", str(run_dir / "config.txt"),
                          "--vocab", str(vocab), *(["--force"] if force else [])))
    if force:
        assert code == EXIT_OK
    else:
        assert code == EXIT_USAGE
        assert "vocab digest" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["threads=2", "learning_rate=0.1",
                                  "disable_excise=true", "reward_mode=shaped",
                                  "span_loss=false", "d_f=128", "rho=0.95",
                                  "eps=1e-6", "selector_loss=true"])
def test_removed_keys_are_rejected(trained_run, tmp_path, capsys, pair):
    code = main(eval_args(trained_run, tmp_path, *tiny_set_args(), "--set", pair))
    assert code == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_hash_ignores_run_plumbing_only():
    cfg = tiny_config()
    plumbing = cfg.replace(seed=3, train_path="a.jsonl", eval_path="b.jsonl",
                           out_dir="elsewhere", updates=7, batch_size=5,
                           eval_every=2)
    assert plumbing.hash() == cfg.hash()
    assert cfg.replace(gru_size=7).hash() != cfg.hash()


def test_save_then_load_round_trips_a_non_default_config(tmp_path):
    cfg = tiny_config(seed=5, train_path="data/train set.jsonl", gamma=0.8,
                      entropy_coef=0.01, glove_path="vectors.txt",
                      freeze_word_emb=True)
    path = tmp_path / "config.txt"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_eval_of_a_truncated_checkpoint_exits_with_a_data_error(trained_run, tmp_path,
                                                                capsys):
    data, run_dir = trained_run
    short = tmp_path / "model.ckpt"
    short.write_bytes((run_dir / "model.ckpt").read_bytes()[:40])
    code = main(["eval", "--checkpoint", str(short), "--dataset", str(data),
                 "--vocab", str(run_dir / "vocab.json"), "--out", str(tmp_path / "eval")])
    assert code == EXIT_DATA
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"document": 5}, {"answers": [3]},
                                 {"document": ["x"]}])
def test_train_on_a_mistyped_record_exits_with_a_data_error(tmp_path, capsys, bad):
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps({"id": "a", "document": "Alpha beta.",
                                "question": "alpha", "answers": ["beta"], **bad}) + "\n")
    code = main(["train", *tiny_set_args(), "--train", str(data), "--updates", "1",
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_train_on_a_document_without_words_names_its_line(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    good = {"id": "a", "document": "Alpha beta.", "question": "alpha",
            "answers": ["beta"]}
    data.write_text(json.dumps(good) + "\n"
                    + json.dumps({**good, "id": "b", "document": "..."}) + "\n")
    code = main(["train", *tiny_set_args(), "--train", str(data), "--updates", "1",
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "line 2" in line and "document" in line


@pytest.mark.parametrize("flag", ["--train", "--eval", "--dataset"])
def test_an_empty_dataset_is_a_data_error_naming_its_file(trained_run, tmp_path,
                                                          capsys, flag):
    data, run_dir = trained_run
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    if flag == "--dataset":
        args = eval_args(trained_run, tmp_path, "--config", str(run_dir / "config.txt"))
        args[args.index("--dataset") + 1] = str(empty)
    else:
        paths = {"--train": str(data), "--eval": str(data), flag: str(empty)}
        args = ["train", *tiny_set_args(), "--train", paths["--train"],
                "--eval", paths["--eval"], "--updates", "1",
                "--out", str(tmp_path / "r")]
    code = main(args)
    assert code == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and str(empty) in line
    assert not (tmp_path / "r" / "model.ckpt").exists()


def test_eval_trajectories_record_what_the_policy_saw(trained_run, tmp_path):
    _, run_dir = trained_run
    assert main(eval_args(trained_run, tmp_path,
                          "--config", str(run_dir / "config.txt"))) == EXIT_OK
    lines = (tmp_path / "eval" / "trajectories.jsonl").read_text().splitlines()
    steps = [step for line in lines for step in json.loads(line)["steps"]]
    assert steps
    for step in steps:
        # what the step did and what the policy saw; not the state it read
        assert set(step) == {"action", "ctx_tokens", "reward", "span", "kept",
                             "probs", "mask"}
        probs, mask = step["probs"], step["mask"]
        assert len(probs) == len(mask) == 3
        assert sum(probs) == pytest.approx(1.0, abs=1e-5)
        assert all(p == 0.0 for p, legal in zip(probs, mask) if not legal)
        # eval is greedy: the action taken is the most probable one
        actions = ["answer", "select", "excise"]
        assert probs.index(max(probs)) == actions.index(step["action"])


@pytest.mark.parametrize("text", ["{}", "not json"])
def test_eval_with_a_malformed_vocab_exits_with_a_data_error(trained_run, tmp_path,
                                                             capsys, text):
    _, run_dir = trained_run
    vocab = tmp_path / "vocab.json"
    vocab.write_text(text)
    code = main(eval_args(trained_run, tmp_path, "--config",
                          str(run_dir / "config.txt"), "--vocab", str(vocab)))
    assert code == EXIT_DATA
    assert str(vocab) in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["gamma=0", "gamma=1.5", "entropy_coef=-0.1",
                                  "sel_kernel=4", "sel_kernel=-1", "sel_filters=0",
                                  "max_doc_tokens=-1", "n_heads=0"])
def test_out_of_range_values_are_config_errors(pair):
    key, value = pair.split("=")
    with pytest.raises(ConfigError, match=key):
        apply_overrides(RunConfig(), [pair]).validate()


def test_freezing_word_vectors_without_a_glove_file_is_a_config_error():
    with pytest.raises(ConfigError, match="freeze_word_emb"):
        RunConfig(freeze_word_emb=True).validate()
    RunConfig(freeze_word_emb=True, glove_path="vectors.txt").validate()


@pytest.mark.parametrize("config_cls", [RunConfig, EncoderConfig],
                         ids=lambda cls: cls.__name__)
def test_every_config_key_is_read_outside_its_class(config_cls):
    # a key that no module reads is a switch that does nothing; the class's
    # own validation, hashing and forwarding do not count as reads
    src = Path(__file__).resolve().parent.parent / "src" / "cfqa"
    own = inspect.getsource(config_cls)
    code = "".join(path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))
                   ).replace(own, "")
    unread = [f.name for f in fields(config_cls)
              if not re.search(rf"\.{f.name}\b", code)]
    assert unread == []


def test_train_with_an_out_of_range_value_prints_one_error_line(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    data.write_text(json.dumps({"id": "a", "document": "Alpha beta.",
                                "question": "alpha", "answers": ["beta"]}) + "\n")
    code = main(["train", "--set", "gamma=1.5", "--train", str(data),
                 "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "gamma" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_python_dash_m_cfqa_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "cfqa", "check", "--only", "topk"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("PASS topk")
