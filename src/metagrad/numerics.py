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
are ordered.  A draw takes a stream or its key bytes, ``path_key(rng,
*labels)`` being those of ``rng.child(*labels)`` made without the stream,
and ``_philox_keys`` is the one place either becomes a Philox key.

A key becomes uniforms in one of two ways, and the shape of the draw
picks the way.  Many keys with a few words each (a block of optimizer
steps, a generated family) go through one ``keyed_uniforms`` call: one
list of prefixes, and sites of suffixes under them (``indexed_labels``
makes n draws' suffixes).  Each prefix is absorbed once into a copy
of the root blake2b state for all sites, and each key hashes only its
suffix from there.  One pass computes every 4-word Philox4x64-10 block of
every key, each row that key's ``uniforms`` bit for bit.  Philox is
counter-based (Salmon et al., SC 2011), so block b of a key is a pure
function of (key, b + 1): numpy's Philox bumps its counter before it
makes a block.  ``box_muller_rows``
turns such rows into the normals ``standard_normals`` draws on each key.
A single stream, read whole or forward, draws on a numpy Philox of its
own, made fresh for that draw: ``uniforms``, ``standard_normals``, a
stream's ``generator()`` and ``NormalRows``.

A bulk draw can also be read forward in row windows: successive
``take(k)`` calls on a ``NormalRows(rng, shape)`` reader return the next
k rows of ``standard_normals(rng, shape)`` bit for bit, and successive
``random`` calls on the stream's own ``generator()`` the next rows of
``uniforms(rng, shape)``.  A reader is the one cursor here: one sampler
call holds it for one draw, and every other draw stays a value of
(seed, path).  ``row_blocks`` is the one block iterator: it splits n
items of some width in rows into windows of at most ``BLOCK_ROWS`` rows,
which bounds a bulk sampler's memory whatever its sample count, and the
optimizer's blocks of iterates, whose steps are drawn, taken and swept in
one window.  Windows that grow from one item serve a caller that may stop
early.

``task_order_sum`` is the one sum over tasks or slots, from zero in order:
the optimizer's slot sums, the stepsize sample and the closed forms use it.

Row dots and row mat-vecs over a stack go through ``np.vecdot`` and
``np.matvec``: one BLAS call per row, so each row rounds as that row alone
(``x @ x``, ``np.linalg.norm(x)``, ``m @ x``) and one vector (d,) as a row
of a stack, which the exact sweep's stages rely on; einsum does not.
``max_spectral_norm`` takes the largest spectral norm over groups of
symmetric matrices, the same float as decomposing them all, while it
decomposes only the groups whose Frobenius bound can still set it.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .errors import NumericalFailure

Vec = np.ndarray  # shape (d,)
Mat = np.ndarray  # shape (d, d) or (m, n)

PathLabel = int | str


def _encode_label(lab: PathLabel) -> bytes:
    if isinstance(lab, str):
        data = lab.encode("utf-8")
        return struct.pack("<cI", b"s", len(data)) + data
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
    the stream is made, so the key is the blake2b hash of those bytes.
    """

    base_seed: int
    path: tuple[PathLabel, ...] = ()
    _encoded: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        encoded = struct.pack("<q", self.base_seed) + b"".join(map(_encode_label, self.path))
        object.__setattr__(self, "_encoded", encoded)

    def child(self, *labels: PathLabel) -> "RngStream":
        """Derive a sub-stream by appending labels to the path."""
        return RngStream(self.base_seed, self.path + labels)

    def _key(self) -> int:
        return int.from_bytes(_philox_keys([self])[0], "little")

    def generator(self) -> np.random.Generator:
        """Materialize the stream from its start.

        Calling twice returns generators that replay the same sequence;
        use ``child`` to obtain fresh randomness for distinct draw sites.
        """
        return _generator(self)


_ROOT = blake2b(digest_size=16)  # the hash state before any key byte


def _philox_keys(prefixes: Sequence[RngStream | bytes],
                 suffixes: Sequence[Sequence[bytes]] = ((b"",),)) -> list[bytes]:
    """Per list of suffixes, the 16-byte Philox keys, as Philox(key=...)
    splits an int key, of prefixes[i] + suffixes[j], i major, end to end: a
    copy of _ROOT absorbs each prefix once for every list, and a copy of
    that state each suffix, before the digest."""
    keys = [[] for _ in suffixes]
    for prefix in prefixes:
        state = _ROOT.copy()
        state.update(path_key(prefix))
        for out, group in zip(keys, suffixes):
            for suffix in group:
                key = state.copy()
                key.update(suffix)
                out.append(key.digest())
    return [b"".join(k) for k in keys]


def _generator(rng: RngStream | bytes) -> np.random.Generator:
    """A fresh generator at the start of the stream, for one draw."""
    key = int.from_bytes(_philox_keys([rng])[0], "little")
    return np.random.Generator(np.random.Philox(key=key))


def path_key(rng: RngStream | bytes, *labels: PathLabel) -> bytes:
    """The key bytes of rng.child(*labels), without making the stream."""
    return (rng if isinstance(rng, bytes) else rng._encoded) + b"".join(map(_encode_label, labels))


def indexed_labels(head: tuple[PathLabel, ...], n: int, *tail: PathLabel) -> tuple[bytes, ...]:
    """path_key(b"", *head, j, *tail) for j < n: n draws' suffixes."""
    return tuple(path_key(b"", *head, j, *tail) for j in range(n))


def uniforms(rng: RngStream | bytes, shape: int | tuple[int, ...]) -> np.ndarray:
    """Uniform [0, 1) draws of the given shape from the stream."""
    return _generator(rng).random(shape)


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


def normal_words(shape: int | tuple[int, ...]) -> int:
    """The uniforms a Box-Muller draw of the given shape reads: its
    entries, rounded up to even."""
    return 2 * ((_normal_shape(shape)[1] + 1) // 2)


def standard_normals(rng: RngStream | bytes, shape: int | tuple[int, ...]) -> np.ndarray:
    """Standard normal draws via Box-Muller on the stream's uniforms."""
    shape, n = _normal_shape(shape)
    u = _generator(rng).random(2 * ((n + 1) // 2))
    return _box_muller(u, n).reshape(shape)


def box_muller_rows(u: np.ndarray, shape: int | tuple[int, ...]) -> np.ndarray:
    """Normals of shape (len(u),) + shape, row j from row j of u, which
    holds normal_words(shape) uniforms: where u is ``keyed_uniforms``' rows
    on keys, row j is ``standard_normals(keys[j], shape)`` bit for bit."""
    shape, n = _normal_shape(shape)
    return _box_muller(u, n).reshape((len(u),) + shape)


# Philox4x64-10's multipliers (for counter words 0 and 2) and key bumps,
# one row per word of a lane's (c0, c2) or (k0, k1) pair
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
SLAB_LANES = 4096  # Philox blocks computed at once, which bounds the pass's temporaries


def _philox(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the blocks (counter[l], 0, 0, 0) under the keys
    (key[0, l], key[1, l]): the (lanes, 4) words numpy's Philox makes.

    Each round multiplies words 0 and 2 of every lane by their constants at
    once, as a (2, lanes) stack; the high 64 bits of each product are
    added up from 32-bit halves, whose partial products fit in 64 bits.
    """
    lanes = len(counter)
    m = np.repeat(_PHILOX_M, lanes, axis=1)  # full rows: a broadcast operand costs more
    m_lo, m_hi = m & _LOW, m >> _HALF
    even = np.zeros((2, lanes), np.uint64)  # words (0, 2) of each lane
    odd = np.zeros((2, lanes), np.uint64)  # words (1, 3)
    even[0] = counter
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        a_lo, a_hi = even & _LOW, even >> _HALF
        lo_lo = a_lo * m_lo
        mid = a_hi * m_lo + (lo_lo >> _HALF)
        mid2 = a_lo * m_hi + (mid & _LOW)
        hi = a_hi * m_hi + (mid >> _HALF) + (mid2 >> _HALF)
        # (c0, c1, c2, c3) <- (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        odd, even = (even * m)[::-1], hi[::-1] ^ odd ^ key
    words = np.empty((lanes, 4), np.uint64)
    words[:, 0::2], words[:, 1::2] = even.T, odd.T
    return words


def keyed_uniforms(prefixes: Sequence[RngStream | bytes], sites: dict) -> dict:
    """Uniform [0, 1) rows of many keys at once: for each site label ->
    (suffixes, words), label -> a (len(prefixes) * len(suffixes), words)
    array whose row i * len(suffixes) + j is, bit for bit,
    ``uniforms(prefixes[i] + suffixes[j], words)``, a prefix being a stream
    or key bytes and a suffix label bytes (``path_key(b"", ...)``).

    The keys are hashed by _philox_keys, each prefix absorbed once for all
    sites; then one vectorized Philox pass makes every 4-word block of every
    key, block b on counter b + 1, and each word becomes (word >> 11) 2^-53
    as ``Generator.random`` makes it.  Memory is O(total words): the pass
    runs SLAB_LANES blocks at a time.
    """
    words = [operator.index(words) for _, words in sites.values()]
    if min(words, default=0) < 0:
        raise ValueError("a site asks for a negative number of words")
    digests = _philox_keys(prefixes, [suffixes for suffixes, _ in sites.values()])
    sizes = [(len(keys) // 16, -(-n // 4)) for keys, n in zip(digests, words)]  # keys, blocks
    key_words = np.frombuffer(b"".join(digests), "<u8").reshape(-1, 2).T  # low word first
    blocks = np.repeat(np.array([b for _, b in sizes], dtype=np.intp),
                       np.array([n for n, _ in sizes], dtype=np.intp))  # per key
    lane_key = np.repeat(np.arange(len(blocks)), blocks)
    first = np.cumsum(blocks) - blocks  # each key's first lane
    counter = (np.arange(len(lane_key)) - np.repeat(first, blocks) + 1).astype(np.uint64)
    u = np.empty((len(lane_key), 4))
    for s in range(0, len(lane_key), SLAB_LANES):
        lanes = slice(s, s + SLAB_LANES)
        u[lanes] = _philox(counter[lanes], key_words[:, lane_key[lanes]]) >> np.uint64(11)
    u *= 2.0**-53  # exact: the words are integers below 2^53
    u = u.reshape(-1)
    rows, start = {}, 0
    for label, (n, b), m in zip(sites, sizes, words):
        rows[label] = u[start:start + 4 * n * b].reshape(n, 4 * b)[:, :m]
        start += 4 * n * b
    return rows


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


def row_blocks(n: int, width: int = 1, grow: bool = False) -> Iterator[tuple[int, int]]:
    """(r0, r1) windows covering items [0, n) in order, each of at least one
    item and at most BLOCK_ROWS rows, an item being width rows.  With grow
    the windows start at one item and double up to that size, so a caller
    that stops at item s has been given at most 2 s + 1 items."""
    cap = max(1, BLOCK_ROWS // width)
    r0, size = 0, 1 if grow else cap
    while r0 < n:
        r1 = min(n, r0 + size)
        yield r0, r1
        r0, size = r1, min(2 * size, cap)


def task_order_sum(terms: np.ndarray) -> np.ndarray:
    """sum_i terms[i] over axis 0, any trailing shape, added in order as the
    loop acc = 0; acc = acc + terms[i] adds it (a matmul or np.sum would
    round differently): + 0.0 gives an all-(-0.0) entry the loop's +0.0."""
    return np.add.accumulate(terms)[-1] + 0.0


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
