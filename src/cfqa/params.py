"""Named trainable parameters with optimizer slots and checkpoint I/O.

A parameter's AdaDelta slot is made at the first optimizer step that
applies a gradient to it: a frozen or never-stepped parameter, such as
every parameter of an eval process, has none.

Checkpoint layout (version 1, little-endian throughout):

    magic    8 bytes  b"CFQACKP1"
    hash_len u16      length of the run-hash string
    hash     utf-8    run hash of the run that wrote the file: ``cfqa
                      train`` writes its config hash and vocab digest,
                      joined by "/"
    count    u32      number of parameters
    per parameter:
        name_len u16, name utf-8
        dtype    u8   (0 = float32, 1 = float64)
        ndim     u8
        extents  u32 * ndim
        payload  raw little-endian floats, row-major
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ContractError, DataError
from .optim import AdaDeltaSlot, adadelta_update
from .tensor import Tensor, default_dtype

_MAGIC = b"CFQACKP1"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


# values per float64 draw of ``uniform_fan_in``: 128 KiB at a time
_DRAW_BLOCK = 1 << 14


def uniform_fan_in(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    """Uniform +-1/sqrt(fan_in) values of ``dtype``, drawn in float64 blocks
    straight into the result, so no float64 copy of a whole parameter is
    held. The blocks continue one stream in row-major order: the values
    equal one ``rng.uniform`` draw of ``shape`` cast to ``dtype``."""
    bound = 1.0 / np.sqrt(fan_in)
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _DRAW_BLOCK):
        block = flat[lo:lo + _DRAW_BLOCK]
        block[...] = rng.uniform(-bound, bound, size=block.size)
    return out


class ParamStore:
    """Insertion-ordered map of named parameter tensors.

    A parameter's AdaDelta slot is made at its first applied step, so a
    frozen or never-stepped parameter has none. Creation order is fixed by
    the model-building code, which makes seeded initialization
    reproducible.
    ``skipped_nonfinite`` counts the optimizer steps refused for a NaN or
    Inf gradient.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._slots: dict[str, AdaDeltaSlot] = {}
        self.skipped_nonfinite = 0

    def create(self, name: str, shape, rng: np.random.Generator,
               fan_in: Optional[int] = None,
               init: Optional[Callable] = None) -> Tensor:
        """Create one trainable tensor. Default init is uniform +-1/sqrt(fan_in)."""
        if name in self._params:
            raise ContractError(f"parameter {name!r} already exists")
        dtype = default_dtype()
        if init is not None:
            data = np.asarray(init(shape), dtype=dtype)
        elif fan_in == 0:
            data = np.zeros(shape, dtype=dtype)
        else:
            if fan_in is None:
                fan_in = shape[0] if len(shape) > 1 else shape[-1]
            data = uniform_fan_in(rng, shape, fan_in, dtype)
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def n_values(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def apply_gradients(self) -> int:
        """One AdaDelta step for every parameter that received a gradient.

        Step sizes come entirely from the accumulator RMS ratio; the rule
        has no learning-rate knob. Returns the number of parameters updated.
        A parameter's slot is made here, at its first applied step. If any
        gradient holds a NaN or Inf, nothing is applied and no slot is made:
        every gradient is cleared, ``skipped_nonfinite`` counts the skipped
        step, and the return is 0.
        """
        pending = [(name, p) for name, p in self._params.items() if p.grad is not None]
        if not all(np.isfinite(p.grad).all() for _, p in pending):
            for _, p in pending:
                p.grad = None
            self.skipped_nonfinite += 1
            return 0
        for name, p in pending:
            slot = self._slots.get(name)
            if slot is None:
                slot = self._slots[name] = AdaDeltaSlot(p.data.shape, p.data.dtype)
            g = np.asarray(p.grad, dtype=p.data.dtype)
            adadelta_update(p.data, g, slot)
            p.grad = None
        return len(pending)

    def state_bytes(self) -> bytes:
        """Concatenated raw parameter payloads, for bit-identity checks,
        joined from views of the parameters with no copy of each."""
        return b"".join(memoryview(np.ascontiguousarray(p.data))
                        for p in self._params.values())


def save_checkpoint(path, store: ParamStore, run_hash: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        encoded = run_hash.encode("utf-8")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<I", len(store.names())))
        for name, p in store.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            code = _DTYPE_CODES[np.dtype(p.data.dtype)]
            fh.write(struct.pack("<BB", code, p.data.ndim))
            for extent in p.data.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(np.ascontiguousarray(p.data).astype(
                _CODE_DTYPES[code], copy=False).tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read a checkpoint, returning (name -> array, run_hash).

    Each array is a read-only view into the file's bytes, so the values are
    held once, by the returned arrays. Every read is bounds-checked: a
    truncated, padded or otherwise malformed file raises ``DataError``,
    never a ``struct`` or numpy error.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())     # slices of it copy nothing
    if blob[:8] != _MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    off = 8

    def take(size: int, what: str) -> memoryview:
        nonlocal off
        if off + size > len(blob):
            raise DataError(f"{path}: truncated: {what} needs bytes {off}..{off + size}, "
                            f"the file has {len(blob)}")
        chunk = blob[off:off + size]
        off += size
        return chunk

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    def text(size: int, what: str) -> str:
        try:
            return str(take(size, what), "utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: {what} is not utf-8") from e

    (hash_len,) = unpack("<H", "the run-hash length")
    run_hash = text(hash_len, "the run hash")
    (count,) = unpack("<I", "the parameter count")
    params: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = unpack("<H", f"the name length of parameter {i}")
        name = text(name_len, f"the name of parameter {i}")
        if name in params:
            raise DataError(f"{path}: parameter {name!r} appears twice")
        code, ndim = unpack("<BB", f"the dtype and rank of {name!r}")
        if code not in _CODE_DTYPES:
            raise DataError(f"{path}: unknown dtype code {code} for {name!r}")
        shape = unpack(f"<{ndim}I", f"the extents of {name!r}")
        dtype = _CODE_DTYPES[code]
        payload = take(math.prod(shape) * dtype.itemsize, f"the values of {name!r}")
        params[name] = np.frombuffer(payload, dtype=dtype).reshape(shape)
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes")
    return params, run_hash


def restore_into(store: ParamStore, params: dict[str, np.ndarray]) -> None:
    """Overwrite a store's values from a loaded checkpoint, in place: each
    parameter keeps its array and dtype. Nothing is written unless every
    parameter can be: a mismatched checkpoint raises ``DataError``, and a
    parameter that is read-only, as a weight is inside a ``fixed_weights``
    block, raises ``ContractError``."""
    missing = set(store.names()) - set(params)
    extra = set(params) - set(store.names())
    if missing or extra:
        raise DataError(
            f"checkpoint does not match model: missing={sorted(missing)}, "
            f"unexpected={sorted(extra)}")
    for name, p in store.items():
        arr = params[name]
        if arr.shape != p.data.shape:
            raise DataError(f"checkpoint shape {arr.shape} for {name!r}, "
                            f"model expects {p.data.shape}")
        if not p.data.flags.writeable:
            raise ContractError(f"parameter {name!r} is read-only; a restore "
                                "inside a fixed_weights block would leave its "
                                "transposed copy stale")
    for name, p in store.items():
        p.data[...] = params[name]
