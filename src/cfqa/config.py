"""Run configuration: one flat key=value record for a whole experiment.

Configs load from plain-text files (diff-able experiment records), accept
CLI overrides, reject unknown keys, and hash canonically so checkpoints can
name the configuration that produced them. The hash leaves out the run
plumbing, so an eval may change the seed, paths or schedule of a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, fields

from .encoder import EncoderConfig
from .errors import ConfigError

RUN_PLUMBING = ("seed", "train_path", "eval_path", "out_dir", "updates",
                "batch_size", "eval_every")


@dataclass
class RunConfig:
    # run plumbing
    seed: int = 0
    train_path: str = ""
    eval_path: str = ""
    out_dir: str = "runs/out"
    updates: int = 1000
    batch_size: int = 16        # episodes per update; also evaluate's lockstep width
    eval_every: int = 200
    # representation sizes
    d1: int = 300
    d2: int = 200
    d_model: int = 128
    k_s: int = 7
    n_heads: int = 4
    char_width: int = 16
    # sentence selector
    sel_kernel: int = 5
    sel_filters: int = 100
    # controller
    gru_size: int = 512
    gamma: float = 0.9
    k_initial: int = 5
    step_cap: int = 5
    max_state_tokens: int = 512
    entropy_coef: float = 0.0
    # answer generation
    max_span_len: int = 20
    # data handling
    max_doc_tokens: int = 0
    glove_path: str = ""
    freeze_word_emb: bool = False

    def validate(self) -> None:
        for name in ("updates", "max_doc_tokens", "entropy_coef"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("batch_size", "k_initial", "step_cap", "max_span_len",
                     "max_state_tokens", "gru_size", "char_width", "d1", "d2",
                     "d_model", "k_s", "n_heads", "sel_kernel", "sel_filters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.sel_kernel % 2 == 0:
            raise ConfigError(f"sel_kernel must be odd, got {self.sel_kernel}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        if self.freeze_word_emb and not self.glove_path:
            raise ConfigError("freeze_word_emb needs glove_path: it freezes "
                              "pretrained word vectors")
        self.encoder_config().validate()

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(d1=self.d1, d2=self.d2, d_model=self.d_model,
                             k_s=self.k_s, n_heads=self.n_heads)

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        """Digest of every key outside the ``RUN_PLUMBING`` group."""
        kept = [line for line in self.to_text().splitlines(keepends=True)
                if line.split("=", 1)[0] not in RUN_PLUMBING]
        return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()[:16]

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES.get(key)
    if ftype is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    if ftype == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if ftype == "int":
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from e
    if ftype == "float":
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from e
    return raw


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply key=value strings (from a file or CLI) on top of a config."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        key = key.strip()
        updates[key] = _parse_value(key, raw)
    return cfg.replace(**updates)


def load_config(path) -> RunConfig:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            pairs.append(stripped)
    return apply_overrides(RunConfig(), pairs)


def save_config(path, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())
