"""Dense linear algebra and deterministic random streams.

Vectors and matrices are plain float64 numpy arrays (aliased ``Vec`` and
``Mat`` below).  Randomness flows through ``RngStream``, a counter-based
stream keyed by a base seed plus a path of labels.  A stream is a value,
not a mutable cursor: materializing the same (seed, path) twice yields
the same draws, regardless of when or in what order other streams were
consumed.  Branch randomness by deriving children, never by drawing a
variable amount and hoping call order stays fixed.  A stream encodes
its seed and path once, as it is made, so its key is one hash call.

Gaussians come from a Box-Muller transform applied to uniforms from a
keyed Philox generator, so every draw is reproducible however the draws
are ordered.  One module-level Philox serves every draw, re-keyed by
assigning one reused state dict of Python ints in which only the key
words change; its buffer and carry state are reset on every draw.  A
stack of draws on a list of streams takes one ``uniforms`` call per
stream and one Box-Muller pass.

A bulk draw can also be taken in row windows: ``uniform_window`` and
``normal_window`` return rows [r0, r1) of ``uniforms(rng, shape)`` and
``standard_normals(rng, shape)`` bit for bit, drawing only the words the
window needs.  Philox makes its words in 4-word blocks, block b from
counter b, so a window starts the generator at the block holding its
first word and drops the words before it.  A normal window takes its
radii and its angles from two such uniform windows, the second offset by
the full draw's pair count.  ``row_blocks`` splits n rows into windows
of at most ``BLOCK_ROWS`` rows, which bounds a bulk sampler's memory
whatever its sample count.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

Vec = np.ndarray  # shape (d,)
Mat = np.ndarray  # shape (d, d) or (m, n)

PathLabel = int | str
_STR_LABELS: dict[str, bytes] = {}  # str label -> encoding; labels are names in the code, so few


def _encode_label(lab: PathLabel) -> bytes:
    if isinstance(lab, str):  # type first: an equal non-str label never reaches the memo
        encoded = _STR_LABELS.get(lab)
        if encoded is None:
            data = lab.encode("utf-8")
            encoded = _STR_LABELS[lab] = struct.pack("<cI", b"s", len(data)) + data
        return encoded
    if isinstance(lab, int):
        return struct.pack("<cq", b"i", lab)
    raise TypeError(f"path labels must be int or str, got {type(lab).__name__}")


@dataclass(frozen=True)
class RngStream:
    """A deterministic random stream identified by (base_seed, path).

    The stream's generator is Philox keyed by a 128-bit hash of the seed
    and path, so draws depend only on the identity of the stream.  Equal
    (seed, path) always reproduce equal values; distinct paths give
    independent-behaving streams.  The seed and path are encoded once, as
    the stream is made (a child extends its parent's bytes by its own
    labels), so the key is one blake2b call on those bytes.
    """

    base_seed: int
    path: tuple[PathLabel, ...] = ()
    _encoded: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        encoded = struct.pack("<q", self.base_seed) + b"".join(map(_encode_label, self.path))
        object.__setattr__(self, "_encoded", encoded)

    def child(self, *labels: PathLabel) -> "RngStream":
        """Derive a sub-stream by appending labels to the path."""
        encoded = self._encoded
        for lab in labels:  # no join: most children add one label
            encoded += _encode_label(lab)
        stream = object.__new__(RngStream)  # skips __post_init__: the parent's bytes are reused
        fields = stream.__dict__
        fields["base_seed"] = self.base_seed
        fields["path"] = self.path + labels
        fields["_encoded"] = encoded
        return stream

    def _key(self) -> int:
        return int.from_bytes(blake2b(self._encoded, digest_size=16).digest(), "little")

    def generator(self) -> np.random.Generator:
        """Materialize the stream from its start.

        Calling twice returns generators that replay the same sequence;
        use ``child`` to obtain fresh randomness for distinct draw sites.
        """
        return np.random.Generator(np.random.Philox(key=self._key()))


_BITS = np.random.Philox(key=0)
_GEN = np.random.Generator(_BITS)
_KEY_WORDS = struct.Struct("<QQ")  # the key's low 64-bit word first, as Philox(key=...) splits it
_PHILOX = {"counter": (0, 0, 0, 0), "key": (0, 0)}
_WORDS_PER_BLOCK = 4  # 64-bit words per Philox4x64 block; a double is one word
_STATE = {"bit_generator": "Philox", "state": _PHILOX, "buffer": (0, 0, 0, 0),
          "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _borrowed_generator(rng: RngStream, block: int = 0) -> np.random.Generator:
    """The module's one generator, repointed at block `block` of the stream.

    Constructing a keyed Philox costs more than the small draws made in
    the hot loops, so a single bit generator is rewound by assigning one
    reused state dict of Python ints (numpy arrays make the setter's reads
    slow) in which only the key words and the counter change: the buffer
    and 32-bit carry restart as a fresh Philox's on every call, and the
    counter is `block`, 0 for every draw but a window's.  Philox advances
    its counter before it makes a block, so counter b yields block b of
    the stream next; at block 0 the draws are identical to generator()'s.
    The returned object is only valid until the next call; callers must
    finish drawing before returning.
    """
    _PHILOX["key"] = _KEY_WORDS.unpack(blake2b(rng._encoded, digest_size=16).digest())
    _PHILOX["counter"] = (block, 0, 0, 0)
    _BITS.state = _STATE
    return _GEN


def uniforms(rng: RngStream, shape: int | tuple[int, ...]) -> np.ndarray:
    """Uniform [0, 1) draws of the given shape from the stream."""
    return _borrowed_generator(rng).random(shape)


def _normal_shape(shape) -> tuple[tuple[int, ...], int]:
    """shape as a tuple of ints, and its number of entries."""
    shape = tuple(map(operator.index, shape if isinstance(shape, (tuple, list)) else (shape,)))
    if min(shape, default=0) < 0:
        raise ValueError(f"negative dimension in shape {shape}")
    return shape, math.prod(shape)


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """The first n normals of each row of 2p uniforms: pair i takes its
    radius from u[i] and its angle from u[p + i] and fills 2i and 2i + 1."""
    pairs = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :pairs]))  # 1 - u in (0, 1], keeps log finite
    theta = 2.0 * np.pi * u[..., pairs:]
    z = np.empty(u.shape)
    z[..., 0::2] = r * np.cos(theta)
    z[..., 1::2] = r * np.sin(theta)
    return z[..., :n]


def standard_normals(rng: RngStream, shape: int | tuple[int, ...]) -> np.ndarray:
    """Standard normal draws via Box-Muller on the stream's uniforms."""
    shape, n = _normal_shape(shape)
    u = _borrowed_generator(rng).random(2 * ((n + 1) // 2))
    return _box_muller(u, n).reshape(shape)


def standard_normal_rows(streams: list[RngStream], shape: int | tuple[int, ...]) -> np.ndarray:
    """Normals of shape (len(streams),) + shape; row j is, bit for bit,
    ``standard_normals(streams[j], shape)``, drawn by one ``uniforms`` call."""
    shape, n = _normal_shape(shape)
    u = np.empty((len(streams), 2 * ((n + 1) // 2)))
    for j, stream in enumerate(streams):
        u[j] = uniforms(stream, u.shape[1])
    return _box_muller(u, n).reshape((len(streams),) + shape)


BLOCK_ROWS = 1024  # rows per window of a bulk draw taken in blocks


def row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """(r0, r1) windows of at most BLOCK_ROWS rows covering rows [0, n) in order."""
    for r0 in range(0, n, BLOCK_ROWS):
        yield r0, min(n, r0 + BLOCK_ROWS)


def _window(shape, r0: int, r1: int) -> tuple[tuple[int, ...], int, int]:
    """The shape of rows [r0, r1) of a draw of the given shape, its entries
    per row, and the full draw's number of entries."""
    shape, n = _normal_shape(shape)
    if not (shape and 0 <= r0 <= r1 <= shape[0]):
        raise ValueError(f"rows [{r0}, {r1}) are not a window of shape {shape}")
    return (r1 - r0,) + shape[1:], math.prod(shape[1:]), n


def _uniform_words(rng: RngStream, start: int, count: int) -> np.ndarray:
    """Words [start, start + count) of the stream's uniforms, as doubles."""
    block, skip = divmod(start, _WORDS_PER_BLOCK)
    gen = _borrowed_generator(rng, block)
    if skip:
        _BITS.random_raw(skip)
    return gen.random(count)


def uniform_window(rng: RngStream, shape: int | tuple[int, ...], r0: int, r1: int) -> np.ndarray:
    """Rows [r0, r1) of ``uniforms(rng, shape)`` bit for bit, without drawing
    the rows before or after them."""
    out_shape, m, _ = _window(shape, r0, r1)
    return _uniform_words(rng, r0 * m, (r1 - r0) * m).reshape(out_shape)


def normal_window(rng: RngStream, shape: int | tuple[int, ...], r0: int, r1: int) -> np.ndarray:
    """Rows [r0, r1) of ``standard_normals(rng, shape)`` bit for bit.

    The full draw's P pairs take their radii from uniforms [0, P) and their
    angles from [P, 2P); entries [lo, hi) need pairs [lo // 2, ceil(hi / 2)),
    so a window draws those two ranges alone.  A window that starts or ends
    inside a pair computes the whole pair and drops its other half.
    """
    out_shape, m, n = _window(shape, r0, r1)
    lo, hi, pairs = r0 * m, r1 * m, (n + 1) // 2
    a, b = lo // 2, (hi + 1) // 2
    u = np.concatenate([_uniform_words(rng, a, b - a), _uniform_words(rng, pairs + a, b - a)])
    return _box_muller(u, 2 * (b - a))[lo - 2 * a:hi - 2 * a].reshape(out_shape)


def row_dots(X: np.ndarray) -> np.ndarray:
    """x . x for each row x of X along the last axis (a scalar for one vector).

    The stacked (1, d) @ (d, 1) matmul rounds every row as ``x @ x`` and
    ``np.linalg.norm(x)`` do on that row alone; einsum and np.sum do not.
    """
    return (X[..., None, :] @ X[..., :, None])[..., 0, 0]


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of symmetric matrices via eigvalsh."""
    eigs = np.linalg.eigvalsh(stack)
    return np.maximum(np.abs(eigs[..., 0]), np.abs(eigs[..., -1]))


def spectral_norm(m: Mat) -> float:
    """Largest singular value (largest |eigenvalue|) of a symmetric matrix.

    Raises ValueError unless m is square and symmetric to 1e-12 relative.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    if float(np.max(np.abs(m - m.T))) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("matrix is not symmetric within tolerance")
    return float(spectral_norms(m))
