"""Dense linear algebra and deterministic random streams.

Vectors and matrices are plain float64 numpy arrays (aliased ``Vec`` and
``Mat`` below).  Randomness flows through ``RngStream``, a counter-based
stream keyed by a base seed plus a path of labels.  A stream is a value,
not a mutable cursor: materializing the same (seed, path) twice yields
the same draws, regardless of when or in what order other streams were
consumed.  Branch randomness by deriving children, never by drawing a
variable amount and hoping call order stays fixed.

Gaussians come from a Box-Muller transform applied to uniforms from a
keyed Philox generator, so every draw is reproducible however the draws
are ordered.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

Vec = np.ndarray  # shape (d,)
Mat = np.ndarray  # shape (d, d) or (m, n)

PathLabel = int | str


@dataclass(frozen=True)
class RngStream:
    """A deterministic random stream identified by (base_seed, path).

    The stream's generator is Philox keyed by a 128-bit hash of the seed
    and path, so draws depend only on the identity of the stream.  Equal
    (seed, path) always reproduce equal values; distinct paths give
    independent-behaving streams.
    """

    base_seed: int
    path: tuple[PathLabel, ...] = ()

    def child(self, *labels: PathLabel) -> "RngStream":
        """Derive a sub-stream by appending labels to the path."""
        for lab in labels:
            if not isinstance(lab, (int, str)):
                raise TypeError(f"path labels must be int or str, got {type(lab).__name__}")
        return RngStream(self.base_seed, self.path + tuple(labels))

    def _key(self) -> int:
        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<q", self.base_seed))
        for lab in self.path:
            if isinstance(lab, int):
                h.update(b"i")
                h.update(struct.pack("<q", lab))
            else:
                data = lab.encode("utf-8")
                h.update(b"s")
                h.update(struct.pack("<I", len(data)))
                h.update(data)
        return int.from_bytes(h.digest(), "little")

    def generator(self) -> np.random.Generator:
        """Materialize the stream from its start.

        Calling twice returns generators that replay the same sequence;
        use ``child`` to obtain fresh randomness for distinct draw sites.
        """
        return np.random.Generator(np.random.Philox(key=self._key()))


_BITS = np.random.Philox(key=0)
_GEN = np.random.Generator(_BITS)
_STATE = _BITS.state


def _borrowed_generator(rng: RngStream) -> np.random.Generator:
    """The module's one generator, repointed at the stream's start.

    Constructing a keyed Philox costs more than the small draws made in
    the hot loops, so a single bit generator is rewound by state
    assignment instead.  The draws are identical to generator()'s.  The
    returned object is only valid until the next call; callers must
    finish drawing before returning.
    """
    key = rng._key()
    _STATE["state"] = {
        "counter": np.zeros(4, dtype=np.uint64),
        "key": np.array([key & 0xFFFFFFFFFFFFFFFF, key >> 64], dtype=np.uint64),
    }
    _STATE["buffer"] = np.zeros(4, dtype=np.uint64)
    _STATE["buffer_pos"] = 4
    _STATE["has_uint32"] = 0
    _STATE["uinteger"] = 0
    _BITS.state = _STATE
    return _GEN


def uniforms(rng: RngStream, shape: int | tuple[int, ...]) -> np.ndarray:
    """Uniform [0, 1) draws of the given shape from the stream."""
    gen = _borrowed_generator(rng)
    return gen.random(shape)


def standard_normals(rng: RngStream, shape: int | tuple[int, ...]) -> np.ndarray:
    """Standard normal draws via Box-Muller on the stream's uniforms."""
    if isinstance(shape, int):
        shape = (shape,)
    n = 1
    for dim in shape:
        if dim < 0:
            raise ValueError(f"negative dimension in shape {shape}")
        n *= int(dim)
    pairs = (n + 1) // 2
    gen = _borrowed_generator(rng)
    u1 = 1.0 - gen.random(pairs)  # in (0, 1], keeps log finite
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n].reshape(shape)


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
