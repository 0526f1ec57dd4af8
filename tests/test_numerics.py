"""Linear algebra primitives checked against slow, independent oracles."""

import numpy as np
import pytest

from metagrad import numerics
from metagrad.numerics import (
    NormalRows,
    RngStream,
    box_muller_rows,
    keyed_uniforms,
    normal_words,
    row_blocks,
    row_dots,
    spectral_norm,
    standard_normals,
    task_order_sum,
    uniforms,
)


def keyed_normal_rows(keys, shape):
    """Normals of shape (len(keys),) + shape, row j on keys[j], as the
    stochastic oracles draw a stack: one keyed_uniforms call, one
    Box-Muller pass."""
    (u,) = numerics.keyed_uniforms(keys, {0: ([b""], normal_words(shape))}).values()
    return box_muller_rows(u, shape)


def jacobi_eigenvalues(a, max_sweeps=200):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    d = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum((a - np.diag(np.diag(a))) ** 2))
        if off <= 1e-13 * max(1.0, float(np.max(np.abs(np.diag(a))))):
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                if abs(theta) > 1e150:
                    t = 0.5 / theta  # limit of the stable formula below
                elif theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                j = np.eye(d)
                j[p, p] = c
                j[q, q] = c
                j[p, q] = s
                j[q, p] = -s
                a = j.T @ a @ j
    return np.sort(np.diag(a))


# ---------------------------------------------------------- spectral_norm


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([1.0, -7.0, 3.0])) == pytest.approx(7.0, rel=1e-12)


def test_spectral_norm_one_by_one():
    assert spectral_norm(np.array([[-2.5]])) == pytest.approx(2.5, rel=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_vs_jacobi():
    gen = np.random.default_rng(3)
    for _ in range(25):
        g = gen.normal(size=(5, 5))
        m = 0.5 * (g + g.T)
        eigs = jacobi_eigenvalues(m)
        expected = max(abs(eigs[0]), abs(eigs[-1]))
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-8)


def test_spectral_norm_indefinite():
    # Top singular value comes from the most negative eigenvalue here.
    m = np.diag([-3.0, 1.0, 0.5])
    assert spectral_norm(m) == pytest.approx(3.0, rel=1e-10)


def test_spectral_norm_lower_bound_property():
    gen = np.random.default_rng(4)
    for _ in range(25):
        g = gen.normal(size=(6, 6))
        m = 0.5 * (g + g.T)
        s = spectral_norm(m)
        for _ in range(10):
            v = gen.normal(size=6)
            assert s >= np.linalg.norm(m @ v) / np.linalg.norm(v) - 1e-9 * s


def test_spectral_norm_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 3)))


def test_spectral_norm_close_leading_eigenvalues():
    # A 0.99995 eigenvalue ratio stalls power iteration; eigvalsh is exact.
    assert spectral_norm(np.diag([1.0, 0.99995])) == 1.0


# -------------------------------------------------------------- RngStream


def test_stream_replays_identically():
    s = RngStream(42).child("noise", 3)
    a = standard_normals(s, 10)
    b = standard_normals(s, 10)
    assert np.array_equal(a, b)


def test_stream_order_independence():
    root = RngStream(7)
    a1 = standard_normals(root.child("a"), 5)
    b1 = standard_normals(root.child("b"), 5)
    # Reverse consumption order in a fresh root: values must not move.
    root2 = RngStream(7)
    b2 = standard_normals(root2.child("b"), 5)
    a2 = standard_normals(root2.child("a"), 5)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_stream_distinct_paths_differ():
    root = RngStream(0)
    a = standard_normals(root.child("x"), 8)
    b = standard_normals(root.child("y"), 8)
    c = standard_normals(root.child("x", 0), 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_label_encoding_unambiguous():
    root = RngStream(0)
    # int 1 vs str "1", and boundary-shifted strings, must be distinct streams.
    assert not np.array_equal(
        standard_normals(root.child(1), 4), standard_normals(root.child("1"), 4)
    )
    assert not np.array_equal(
        standard_normals(root.child("ab", "c"), 4),
        standard_normals(root.child("a", "bc"), 4),
    )


def test_stream_seed_changes_values():
    a = standard_normals(RngStream(1).child("z"), 16)
    b = standard_normals(RngStream(2).child("z"), 16)
    assert not np.array_equal(a, b)


def test_stream_rejects_bad_labels():
    with pytest.raises(TypeError):
        RngStream(0).child(1.5)
    for bad in (None, b"x", (1,), np.int64(1)):
        with pytest.raises(TypeError):
            RngStream(0).child("ok", bad)
        with pytest.raises(TypeError):
            RngStream(0, ("ok", bad))


# Every stream's draws follow from its 128-bit key, so these values pin the
# draws of every run: the seed as "<q", then per label b"i" and "<q" for an
# int or b"s", "<I" byte length and UTF-8 bytes for a str, hashed by blake2b.
PINNED_KEYS = [
    (0, (), 0xCEAE091ADD2B76DCE337C38E19CE04C8),
    (-5, (), 0x51FEB3A86D4F6AE70BA61DF259458DFA),
    (7, (-3,), 0xEE873376BBC04898E11FF53F47738E29),
    (7, ("βeta ñ 試",), 0xD2D10F25F34785072DCC32AB9A407242),
    (123, ("audit", 4, "task", -1, ""), 0xFB7067ABCCCDD65160C03F1DA7B28B8E),
    (2019, (17, "slot", 3, "hvp"), 0xE65D9035A66F04D3AAEFD816A3A380E6),
]


@pytest.mark.parametrize("seed, path, key", PINNED_KEYS)
def test_stream_keys_pinned(seed, path, key):
    direct = RngStream(seed, path)
    derived = RngStream(seed).child(*path)
    stepwise = RngStream(seed)
    for label in path:
        stepwise = stepwise.child(label)
    for stream in (direct, derived, stepwise):
        assert stream._key() == key
        assert stream == direct and hash(stream) == hash(direct)
        assert stream.path == path and repr(stream) == repr(direct)
    assert direct != RngStream(seed + 1, path)


# --------------------------------------------------------------- gaussian


def test_gaussian_moments():
    draws = 2.0 * standard_normals(RngStream(11).child("lln"), 1_000_000)
    n = draws.size
    assert abs(draws.mean()) <= 4.0 * 2.0 / np.sqrt(n)
    assert draws.var() == pytest.approx(4.0, rel=0.02)


def test_gaussian_tail_fractions():
    draws = standard_normals(RngStream(12).child("tails"), 1_000_000)
    within_1 = np.mean(np.abs(draws) <= 1.0)
    within_2 = np.mean(np.abs(draws) <= 2.0)
    assert within_1 == pytest.approx(0.682689, abs=0.004)
    assert within_2 == pytest.approx(0.954500, abs=0.003)


def test_gaussian_shapes_and_edges():
    assert standard_normals(RngStream(0), 0).shape == (0,)
    assert standard_normals(RngStream(0).child("m"), (3, 4)).shape == (3, 4)
    with pytest.raises(ValueError):
        standard_normals(RngStream(0), -1)
    with pytest.raises(ValueError):
        standard_normals(RngStream(0), (-1, -2))


def test_sizes_accept_numpy_integers():
    stream = RngStream(14).child("size")
    assert np.array_equal(standard_normals(stream, np.int64(3)), standard_normals(stream, 3))
    assert np.array_equal(standard_normals(stream, (np.int32(2), np.int64(3))),
                          standard_normals(stream, (2, 3)))
    assert np.array_equal(keyed_normal_rows([stream], np.int64(3)),
                          keyed_normal_rows([stream], 3))
    with pytest.raises(TypeError):
        standard_normals(stream, 3.0)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4)], ids=["vector", "1", "7", "3x4"])
def test_row_dots_round_each_row_as_the_row_alone(shape):
    # the task oracles rely on row_dots(W)[i] == W[i] @ W[i] bit for bit,
    # for a stack of points and for one point alike
    rng = np.random.default_rng(31)
    for d in range(1, 65):
        X = rng.normal(size=shape + (d,)) * rng.uniform(0.1, 10.0)
        got = row_dots(X)
        assert got.shape == shape
        for i in np.ndindex(shape):
            assert got[i] == X[i] @ X[i]
            assert np.sqrt(got[i]) == np.linalg.norm(X[i])


@pytest.mark.parametrize("tail", [(), (3,), (4, 4)], ids=["n", "n-d", "n-d-d"])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_task_order_sum_is_the_from_zero_loop(n, tail):
    # bit for bit the loop acc = 0; acc = acc + terms[i], which np.sum's
    # pairwise sum and a weights @ terms matmul need not be; a -0.0 first
    # term added to zero is +0.0
    rng = np.random.default_rng(17)
    for trial in range(20):
        terms = rng.normal(size=(n,) + tail) * 10.0 ** rng.integers(-8, 9, size=(n,) + tail)
        if trial == 0:
            terms[0] = -0.0
        acc = np.zeros(tail)
        for term in terms:
            acc = acc + term
        got = task_order_sum(terms)
        assert got.shape == tail
        assert np.array_equal(got, acc)
        assert np.array_equal(np.signbit(got), np.signbit(acc))
    assert not np.signbit(task_order_sum(np.full((1,) + tail, -0.0))).any()


@pytest.mark.parametrize("B", [1, 10, 30])
@pytest.mark.parametrize("shape", [(1,), (4,), (5,), (25,), (5, 5), (0,)])
def test_stacked_rows_equal_streams_drawn_alone(shape, B):
    # odd and even draw counts, one stack per step key: row j of the one
    # Box-Muller pass must carry the bits of stream j's own draw
    for k in range(40):
        streams = [RngStream(15).child(k, "slot", j, "inner") for j in range(B)]
        rows = keyed_normal_rows(streams, shape)
        assert rows.shape == (B,) + shape
        for j, stream in enumerate(streams):
            assert np.array_equal(rows[j], standard_normals(stream, shape))


def test_each_stream_is_one_keyed_draw(monkeypatch):
    # keyed draws are counted as the keys handed to keyed_uniforms, its
    # prefixes times each site's suffixes, plus calls to uniforms and
    # standard_normals; a stack hands each stream's key over once, as one
    # (prefix, suffix, words) entry here
    calls = []
    monkeypatch.setattr(numerics, "uniforms", lambda *a: calls.append(a) or uniforms(*a))
    monkeypatch.setattr(numerics, "keyed_uniforms", lambda prefixes, sites: calls.extend(
        (prefix, suffix, words) for prefix in prefixes for suffixes, words in sites.values()
        for suffix in suffixes) or keyed_uniforms(prefixes, sites))
    standard_normals(RngStream(16), (3, 5))
    assert calls == []
    streams = [RngStream(16).child(j) for j in range(3)]
    keyed_normal_rows(streams, (5,))
    assert [a[0] for a in calls] == streams and {a[1] for a in calls} == {b""}


def test_stacked_rows_edges():
    assert keyed_normal_rows([], (3,)).shape == (0, 3)
    with pytest.raises(ValueError):
        keyed_normal_rows([RngStream(0)], (-1,))


# (seed, path) of streams whose two Philox key words are both at or above
# 2**63, the words numpy splits the 128-bit key into
TOP_WORD_STREAMS = [s for s in (RngStream(8).child("top", i) for i in range(64))
                    if min(s._key() & (2**64 - 1), s._key() >> 64) >= 2**63]


@pytest.mark.parametrize("as_bytes", [False, True], ids=["streams", "bytes"])
def test_keyed_uniforms_rows_are_each_keys_own_draw(as_bytes):
    # every word count from 0 to 33 (0 to 9 blocks, each remainder mod 4),
    # one site each, on keys given as streams or as their key bytes
    assert TOP_WORD_STREAMS
    streams = [RngStream(21).child("kernel", i) for i in range(5)] + TOP_WORD_STREAMS[:3]
    keys = [numerics.path_key(s) for s in streams] if as_bytes else streams
    out = keyed_uniforms(keys, {words: ([b""], words) for words in range(34)})
    assert list(out) == list(range(34))
    for words, rows in out.items():
        assert rows.shape == (len(keys), words) and rows.dtype == np.float64
        for j, stream in enumerate(streams):
            assert np.array_equal(rows[j], uniforms(stream, words))
            assert np.array_equal(rows[j], stream.generator().random(words))


@pytest.mark.parametrize("slab", [numerics.SLAB_LANES, 5, 1])
def test_keyed_uniforms_mixes_requests_in_one_call(monkeypatch, slab):
    # sites of mixed key counts and sizes, empty key lists among them, keep
    # their own rows; a key in two sites draws from its start in each;
    # passes of a few blocks split keys and sites anywhere.  Each site's
    # keys are its suffixes under the one empty prefix.
    monkeypatch.setattr(numerics, "SLAB_LANES", slab)
    root = RngStream(22)
    keys = [root.child("mix", i) for i in range(12)]
    requests = [(keys[:3], 6), ([], 5), (keys[3:4], 26), (keys[4:], 1), ([], 0),
                (keys[:2], 33), (keys[2:3] * 2, 4)]
    out = keyed_uniforms([b""], {site: ([numerics.path_key(k) for k in ks], words)
                                 for site, (ks, words) in enumerate(requests)})
    assert len(out) == len(requests)
    for (ks, words), rows in zip(requests, out.values()):
        assert rows.shape == (len(ks), words)
        for j, key in enumerate(ks):
            assert np.array_equal(rows[j], uniforms(key, words))
    assert keyed_uniforms(keys, {}) == {}
    assert [r.shape for r in keyed_uniforms([], {0: ([b""], 3), 1: ([b""], 0)}).values()] == [
        (0, 3), (0, 0)]
    with pytest.raises(ValueError):
        keyed_uniforms(keys[:1], {0: ([b""], -1)})


@pytest.mark.parametrize("slab", [numerics.SLAB_LANES, 3])
def test_keyed_uniforms_grid_rows_are_prefix_plus_suffix_draws(monkeypatch, slab):
    # row i S + j of a site is the draw on prefixes[i] + suffixes[j]:
    # prefixes as streams or key bytes, a b"" suffix among the labels,
    # grids that are empty on either side, and a slab that splits keys
    monkeypatch.setattr(numerics, "SLAB_LANES", slab)
    root = RngStream(24)
    prefixes = [root.child("step", 0), numerics.path_key(root, "step", 1), root.child("step", 2)]
    suffixes = [b"", numerics.path_key(b"", "slot", 0, "inner"), numerics.path_key(b"", 7)]
    sites = {"all": (suffixes, 9), "first": (suffixes[:1], 0), "none": ([], 5)}
    calls = [(prefixes, sites), (prefixes[1:2], {"all": (suffixes, 2)}),
             ([], {"all": (suffixes, 4)})]
    for ps, call_sites in calls:
        out = keyed_uniforms(ps, call_sites)
        assert list(out) == list(call_sites)
        for (ss, words), rows in zip(call_sites.values(), out.values()):
            assert rows.shape == (len(ps) * len(ss), words)
            for i, prefix in enumerate(ps):
                for j, suffix in enumerate(ss):
                    key = numerics.path_key(prefix) + suffix
                    assert np.array_equal(rows[i * len(ss) + j], uniforms(key, words))
    stream = root.child("step", 0, "slot", 0, "inner")
    assert np.array_equal(keyed_uniforms(prefixes, sites)["all"][1], uniforms(stream, 9))
    with pytest.raises(ValueError):
        keyed_uniforms(prefixes, {0: (suffixes, -1)})
    with pytest.raises(ValueError):
        keyed_uniforms([], {0: ([], -1)})


def test_uniforms_range_and_mean():
    u = uniforms(RngStream(13).child("u"), 200_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert u.mean() == pytest.approx(0.5, abs=0.004)


def test_flat_and_shaped_draws_agree():
    # Reshaping is layout only: same stream, same underlying sequence.
    flat = standard_normals(RngStream(5).child("r"), 12)
    shaped = standard_normals(RngStream(5).child("r"), (3, 4))
    assert np.array_equal(flat, shaped.ravel())


def test_draws_match_materialized_generator():
    # A one-stream draw must be indistinguishable from drawing on the
    # stream's materialized generator, including across interleaved streams
    # and odd draw counts.  A Philox key is two unsigned 64-bit words, so
    # streams whose words are at or above 2**63 are among them.
    top = [s for s in (RngStream(8).child("top", i) for i in range(64))
           if min(s._key() & (2**64 - 1), s._key() >> 64) >= 2**63]
    assert top
    streams = [RngStream(7).child("a", i) for i in range(6)] + top
    for n in (1, 3, 8, 5, 2, 7):
        for st in streams:
            got_u = uniforms(st, n)
            want_u = st.generator().random(n)
            assert np.array_equal(got_u, want_u)
            got_z = standard_normals(st, n)
            assert np.array_equal(got_z, standard_normals(st, n))


# ---------------------------------------------------------------- windows

# (shape, splits into consecutive windows of rows): row sizes 1 and 3 and
# odd totals end windows inside a Box-Muller pair, so the next window opens
# on the pair's second normal, and on the unpaired last normal; a zero-row
# window reads nothing.  Each shape is also split at random.
WINDOW_CASES = [
    ((7,), [[7], [1, 2, 4], [3, 0, 3, 1], [1] * 7]),
    ((9, 3), [[9], [1, 1, 5, 2], [0, 3, 0, 6], [1] * 9]),
    ((5, 3, 3), [[5], [1, 1, 3], [2, 0, 2, 1], [1] * 5]),
    ((12, 4), [[12], [1, 2, 9], [11, 1], [6, 0, 6]]),
    ((1,), [[1], [0, 1, 0]]),
    ((5, 0), [[5], [1, 3, 0, 1]]),
]


def random_split(gen, n):
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(gen.integers(0, 5)), n - sum(sizes)))
    return sizes


@pytest.mark.parametrize("shape, windows", WINDOW_CASES)
def test_windows_equal_slices_of_the_whole_draw(shape, windows):
    # read forward, a NormalRows reader and the stream's own generator give
    # the rows of standard_normals and uniforms on the stream, bit for bit
    gen = np.random.default_rng(22)
    for k in range(8):
        stream = RngStream(18).child("window", k)
        u, z = uniforms(stream, shape), standard_normals(stream, shape)
        for sizes in windows + [random_split(gen, shape[0]) for _ in range(4)]:
            rows, own = NormalRows(stream, shape), stream.generator()
            r0 = 0
            for size in sizes:
                got_z, got_u = rows.take(size), own.random((size,) + shape[1:])
                assert got_z.shape == got_u.shape == (size,) + shape[1:]
                assert np.array_equal(got_z, z[r0:r0 + size]), (sizes, r0)
                assert np.array_equal(got_u, u[r0:r0 + size]), (sizes, r0)
                r0 += size
            assert r0 == shape[0]


def test_windows_leave_the_next_draw_fresh():
    # a reader draws on generators of its own: draws on other streams, and
    # on its own, between its windows neither move it nor are moved by it,
    # and the shared Philox always starts at counter 0
    s = RngStream(19).child("window")
    streams = [s, RngStream(19).child("next"), RngStream(20)]
    shape = (40, 3)
    z, u = standard_normals(s, shape), uniforms(s, shape)
    rows, own = NormalRows(s, shape), s.generator()
    for r0 in range(0, 40, 5):  # 15 entries a window: every other one splits a pair
        assert np.array_equal(rows.take(5), z[r0:r0 + 5])
        for t in streams:
            assert np.array_equal(uniforms(t, 6), t.generator().random(6))
            want = numerics._box_muller(t.generator().random(6), 5)
            assert np.array_equal(standard_normals(t, 5), want)
            assert np.array_equal(keyed_normal_rows([t, s], 5)[0], want)
        assert np.array_equal(own.random((5, 3)), u[r0:r0 + 5])
    for seed, path, key in PINNED_KEYS:
        assert RngStream(seed, path)._key() == key


def test_window_edges():
    rows = NormalRows(RngStream(21), (5, 2))
    for bad in (-1, 6):
        with pytest.raises(ValueError):
            rows.take(bad)
    rows.take(4)
    with pytest.raises(ValueError):
        rows.take(2)
    assert rows.take(1).shape == (1, 2) and rows.take(0).shape == (0, 2)
    assert NormalRows(RngStream(21), (5, 0)).take(3).shape == (3, 0)
    assert list(row_blocks(0)) == []
    blocks = list(row_blocks(3 * numerics.BLOCK_ROWS + 1))
    assert [r1 - r0 for r0, r1 in blocks] == [numerics.BLOCK_ROWS] * 3 + [1]
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    # items of width rows: at most BLOCK_ROWS rows a window, and one item at least
    assert list(row_blocks(7, numerics.BLOCK_ROWS // 3)) == [(0, 3), (3, 6), (6, 7)]
    assert list(row_blocks(2, 2 * numerics.BLOCK_ROWS)) == [(0, 1), (1, 2)]


@pytest.mark.parametrize("width", [1, 3, 2 * numerics.BLOCK_ROWS])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 3 * numerics.BLOCK_ROWS + 1])
def test_growing_windows_double_from_one_item(n, width):
    blocks = list(row_blocks(n, width, grow=True))
    assert [r0 for r0, _ in blocks] + [n] == [0] + [r1 for _, r1 in blocks]
    # 1, 2, 4, ... items up to BLOCK_ROWS // width, the last window cut at n
    cap = max(1, numerics.BLOCK_ROWS // width)
    sizes = [r1 - r0 for r0, r1 in blocks]
    assert sizes[:-1] == [min(2**i, cap) for i in range(len(sizes) - 1)]
    assert all(0 < size <= min(2**i, cap) for i, size in enumerate(sizes))
    assert all(size * width <= max(width, numerics.BLOCK_ROWS) for size in sizes)
    # a caller that stops at item s has been given at most 2 s + 1 items
    assert all(r1 <= 2 * r0 + 1 for r0, r1 in blocks)


PURPOSE_LABELS = ("inner", "outer", "hess", "hvp", "slot", "stepsize", "tasks")


def _random_path(gen):
    labels = []
    for _ in range(gen.integers(0, 6)):
        kind = gen.integers(0, 3)
        if kind == 0:
            labels.append(int(gen.integers(-(2**63), 2**63 - 1, endpoint=True)))
        elif kind == 1:
            labels.append(PURPOSE_LABELS[gen.integers(0, len(PURPOSE_LABELS))])
        else:
            labels.append("".join(gen.choice(list("ab1 βñ試"), size=gen.integers(0, 4))))
    return tuple(labels)


def test_label_memo_keeps_type_checks_and_keys():
    root = RngStream(3)
    for label in PURPOSE_LABELS + (1,):
        root.child(label)
    # labels equal (or hash-equal) to a cached str or int still fail the type check
    for bad in (1.0, np.int64(1), b"outer", None):
        with pytest.raises(TypeError):
            root.child(bad)
        with pytest.raises(TypeError):
            root.child("outer", bad)
    assert root.child(np.str_("outer"))._key() == root.child("outer")._key()
    gen = np.random.default_rng(17)
    for _ in range(200):
        seed = int(gen.integers(-(2**63), 2**63 - 1, endpoint=True))
        path = _random_path(gen)
        direct, derived = RngStream(seed, path), RngStream(seed).child(*path)
        stepwise = RngStream(seed)
        for label in path:
            stepwise = stepwise.child(label)
        for stream in (derived, stepwise):
            assert stream._encoded == direct._encoded and stream._key() == direct._key()
            assert stream == direct
        # key bytes made without streams draw what the stream draws
        key = numerics.path_key(numerics.path_key(RngStream(seed), *path[:1]), *path[1:])
        assert key == direct._encoded
        assert np.array_equal(uniforms(key, 3), uniforms(direct, 3))
    for seed, path, key in PINNED_KEYS:
        assert RngStream(seed, path)._key() == RngStream(seed).child(*path)._key() == key
