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

A bulk draw can also be read forward in row windows: successive
``take(k)`` calls on a ``NormalRows(rng, shape)`` reader return the next
k rows of ``standard_normals(rng, shape)`` bit for bit, and successive
``random`` calls on the stream's own ``generator()`` the next rows of
``uniforms(rng, shape)``.  A reader is the one cursor here: one sampler
call holds it for one draw, and every other draw stays a value of
(seed, path).  ``row_blocks`` splits n rows into windows of at most
``BLOCK_ROWS`` rows, which bounds a bulk sampler's memory whatever its
sample count.

``max_spectral_norm`` takes the largest spectral norm over groups of
symmetric matrices, the same float as decomposing them all, while it
decomposes only the groups whose Frobenius bound can still set it.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .errors import NumericalFailure

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
_STATE = {"bit_generator": "Philox", "state": _PHILOX, "buffer": (0, 0, 0, 0),
          "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _borrowed_generator(rng: RngStream) -> np.random.Generator:
    """The module's one generator, rewound to the start of the stream.

    Constructing a keyed Philox costs more than the small draws made in
    the hot loops, so a single bit generator is rewound by assigning one
    reused state dict of Python ints (numpy arrays make the setter's reads
    slow) in which only the key words change: the counter, buffer and
    32-bit carry restart as a fresh Philox's on every call, so the draws
    are identical to generator()'s.  The returned object is only valid
    until the next call; callers must finish drawing before returning.
    """
    _PHILOX["key"] = _KEY_WORDS.unpack(blake2b(rng._encoded, digest_size=16).digest())
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


class NormalRows:
    """A forward reader of ``standard_normals(rng, shape)``: each ``take(k)``
    returns the draw's next k rows bit for bit.

    The full draw's P pairs take their radii from words [0, P) of the
    stream and their angles from words [P, 2P), so the reader draws them on
    two private generators, the second started at word P.  Philox makes
    words 4c to 4c + 3 from counter c, so that generator starts at counter
    P // 4 and drops P % 4 words.  A window that ends inside a pair keeps
    the pair's second normal for the next window.
    """

    def __init__(self, rng: RngStream, shape: int | tuple[int, ...]):
        shape, n = _normal_shape(shape)
        self._left, self._row, self._m = shape[0] if shape else 0, shape[1:], math.prod(shape[1:])
        pairs, key = (n + 1) // 2, rng._key()
        self._radii = np.random.Generator(np.random.Philox(key=key))
        angles = np.random.Philox(key=key, counter=pairs // 4)
        angles.random_raw(pairs % 4)
        self._angles = np.random.Generator(angles)
        self._spare = np.empty(0)  # the second normal of a pair split by the last window

    def take(self, k: int) -> np.ndarray:
        """The draw's next k rows, shape (k,) + shape[1:]."""
        if not 0 <= k <= self._left:
            raise ValueError(f"{k} rows asked of a draw with {self._left} rows left")
        self._left -= k
        n = k * self._m
        p = (n - self._spare.size + 1) // 2  # the pairs this window opens
        u = np.empty(2 * p)
        self._radii.random(out=u[:p])
        self._angles.random(out=u[p:])
        z = np.concatenate([self._spare, _box_muller(u, 2 * p)])
        self._spare = z[n:].copy()  # a copy: a view would keep the whole window alive
        return z[:n].reshape((k,) + self._row)


BLOCK_ROWS = 1024  # rows per window of a bulk draw taken in blocks


def row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """(r0, r1) windows of at most BLOCK_ROWS rows covering rows [0, n) in order."""
    for r0 in range(0, n, BLOCK_ROWS):
        yield r0, min(n, r0 + BLOCK_ROWS)


def row_dots(X: np.ndarray) -> np.ndarray:
    """x . x for each row x of X along the last axis (a scalar for one vector).

    The stacked (1, d) @ (d, 1) matmul rounds every row as ``x @ x`` and
    ``np.linalg.norm(x)`` do on that row alone; einsum and np.sum do not.
    """
    return X @ X if X.ndim == 1 else (X[..., None, :] @ X[..., :, None])[..., 0, 0]


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of symmetric matrices via eigvalsh."""
    eigs = np.linalg.eigvalsh(stack)
    return np.maximum(np.abs(eigs[..., 0]), np.abs(eigs[..., -1]))


PRUNE_MARGIN = 1e-8  # far above the O(d eps) by which eigvalsh's |lambda| can exceed ||G||_2
PRUNE_BLOCK = 4  # groups built at once while bounding


def max_spectral_norm(stacks: Callable[[slice], np.ndarray], den: np.ndarray) -> float:
    """max over groups g of max_i ||G_gi||_2 / den[g], for positive den,
    where stacks(slice(g0, g1)) builds groups g0..g1-1 as one
    (g1 - g0, n, d, d) stack of symmetric matrices, each group's rows as
    that group built alone.

    The result is the float that decomposing every group gives, but only
    the groups that can still set it are decomposed.  Each group's bound
    max_i ||G_gi||_F / den[g] is taken first, PRUNE_BLOCK groups at a time;
    then groups are rebuilt and decomposed one at a time, in descending
    bound order, while bound * (1 + PRUNE_MARGIN) reaches the running
    maximum.  ||G||_2 <= ||G||_F, eigvalsh is backward stable (its |lambda|
    exceeds ||G||_2 by a relative O(d eps) at most), and max and division
    by a positive den are monotone under rounding, so no skipped group can
    raise the maximum.  A bound that overflows while its entries are
    finite is inf, so that group is always decomposed.

    Raises NumericalFailure, before any decomposition, if an entry of some
    matrix is not finite.
    """
    bounds = np.empty(len(den))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are refused below
        for g0 in range(0, len(den), PRUNE_BLOCK):
            stack = stacks(slice(g0, g0 + PRUNE_BLOCK))
            g1 = g0 + len(stack)
            fro2 = np.einsum("gnij,gnij->gn", stack, stack)
            if not np.isfinite(fro2).all() and not np.isfinite(stack).all():
                raise NumericalFailure("a matrix has a non-finite entry")
            bounds[g0:g1] = np.sqrt(np.max(fro2, axis=1)) / den[g0:g1]
    best = 0.0
    for g in np.argsort(-bounds, kind="stable"):
        if bounds[g] * (1.0 + PRUNE_MARGIN) < best:
            break
        best = max(best, float(np.max(spectral_norms(stacks(slice(g, g + 1)))) / den[g]))
    return best


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
