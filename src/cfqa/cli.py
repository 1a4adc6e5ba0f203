"""Command-line surface: train, eval, gen-data, check.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 oracle-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .checks import run_checks
from .config import RunConfig, apply_overrides, load_config, save_config
from .episode import evaluate
from .errors import CfqaError, ConfigError, ContractError, DataError
from .model import QaModel
from .params import load_checkpoint, restore_into, save_checkpoint
from .synthetic import SyntheticConfig, gen_synthetic, write_jsonl
from .text import (build_vocab, examples_from_records, load_vocab, read_jsonl,
                   save_vocab)
from .train import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = list(args.set or [])
    flag_map = {"seed": "seed", "updates": "updates", "train": "train_path",
                "eval": "eval_path", "out_dir": "out_dir"}
    for attr, key in flag_map.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides.append(f"{key}={value}")
    cfg = apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def _read_records(path) -> list[dict]:
    """The records of a JSONL dataset; a file with none is a data error."""
    records = read_jsonl(path)
    if not records:
        raise DataError(f"{path}: no records")
    return records


def _load_examples(cfg: RunConfig):
    if not cfg.train_path:
        raise ConfigError("train_path is required")
    train_records = _read_records(cfg.train_path)
    vocab = build_vocab(train_records, char_width=cfg.char_width)
    train_set = examples_from_records(train_records, vocab,
                                      max_doc_tokens=cfg.max_doc_tokens)
    eval_set = None
    if cfg.eval_path:
        eval_records = _read_records(cfg.eval_path)
        eval_set = examples_from_records(eval_records, vocab,
                                         max_doc_tokens=cfg.max_doc_tokens)
    return train_set, eval_set, vocab


def _run_hash(cfg: RunConfig, vocab) -> str:
    """What a checkpoint records of its run: the config hash and the vocab
    digest, joined by ``/``."""
    return f"{cfg.hash()}/{vocab.digest()}"


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_set, eval_set, vocab = _load_examples(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(out_dir / "config.txt", cfg)
    save_vocab(out_dir / "vocab.json", vocab)
    model = QaModel(cfg, vocab)
    with open(out_dir / "train_log.jsonl", "w", encoding="utf-8") as log:
        summary = train(model, train_set, cfg, eval_set=eval_set,
                        log_line=lambda line: print(line, file=log))
    save_checkpoint(out_dir / "model.ckpt", model.store, _run_hash(cfg, vocab))
    with open(out_dir / "train_summary.json", "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in summary.items() if k != "history"}, fh,
                  indent=2, sort_keys=True)
    if "eval" in summary:
        print(json.dumps({"eval": summary["eval"]}, sort_keys=True))
    print(f"wrote {out_dir / 'model.ckpt'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    params, run_hash = load_checkpoint(args.checkpoint)
    # a checkpoint written before vocab digests holds the config hash only
    ckpt_config, _, ckpt_vocab = run_hash.partition("/")
    if ckpt_config != cfg.hash() and not args.force:
        print(f"error: checkpoint was written for config hash {ckpt_config}, "
              f"current config hashes to {cfg.hash()}; pass --force to "
              "evaluate anyway", file=sys.stderr)
        return EXIT_USAGE
    vocab_path = args.vocab or str(Path(args.checkpoint).parent / "vocab.json")
    vocab = load_vocab(vocab_path)
    if ckpt_vocab and ckpt_vocab != vocab.digest() and not args.force:
        print(f"error: checkpoint was written with vocab digest {ckpt_vocab}, "
              f"{vocab_path} digests to {vocab.digest()}; every word id would "
              "mean another word; pass --force to evaluate anyway", file=sys.stderr)
        return EXIT_USAGE
    records = _read_records(args.dataset)
    dataset = examples_from_records(records, vocab,
                                    max_doc_tokens=cfg.max_doc_tokens)
    model = QaModel(cfg, vocab)
    restore_into(model.store, params)
    del params     # views of the file's bytes; the model holds the values now
    metrics, rows = evaluate(model, dataset, cfg)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics.to_dict(), fh, indent=2, sort_keys=True)
    with open(out_dir / "per_example.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "em", "f1", "n_steps", "actions"])
        for row in rows:
            writer.writerow([row["id"], row["em"], f"{row['f1']:.6f}",
                             row["n_steps"], row["actions"]])
    with open(out_dir / "trajectories.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({"id": row["id"], "steps": row["steps"]},
                                sort_keys=True) + "\n")
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = SyntheticConfig(
        n_docs=args.n_docs,
        sentences_per_doc=(args.sentences[0], args.sentences[1]),
        tokens_per_sentence=(args.tokens[0], args.tokens[1]),
        vocab_size=args.vocab_size,
        distractor_rate=args.distractor_rate,
    )
    records = gen_synthetic(cfg, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(out, records)
    print(f"wrote {len(records)} examples to {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_checks(only=args.only, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {[r.name for r in failed]}",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cfqa",
                     description="Multi-step coarse-to-fine question answering")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="train a model")
    common(p_train)
    p_train.add_argument("--train", dest="train", help="training JSONL")
    p_train.add_argument("--eval", dest="eval", help="validation JSONL")
    p_train.add_argument("--updates", type=int, default=None)
    p_train.add_argument("--out", dest="out_dir", default=None)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--vocab", help="vocab.json (default: next to checkpoint)")
    p_eval.add_argument("--out", help="output directory")
    p_eval.add_argument("--force", action="store_true",
                        help="evaluate even on a config-hash or vocab mismatch")
    p_eval.set_defaults(fn=cmd_eval)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n-docs", type=int, default=100)
    p_gen.add_argument("--sentences", type=int, nargs=2, default=[8, 12],
                       metavar=("LO", "HI"))
    p_gen.add_argument("--tokens", type=int, nargs=2, default=[5, 9],
                       metavar=("LO", "HI"))
    p_gen.add_argument("--vocab-size", type=int, default=120)
    p_gen.add_argument("--distractor-rate", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=cmd_gen_data)

    p_check = sub.add_parser("check", help="run the oracle suite")
    p_check.add_argument("--only", help="run a single named check")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CfqaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
