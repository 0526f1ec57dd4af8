"""Task oracles validated by finite differences and fresh-sample audits."""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from metagrad import numerics
from metagrad.cli import generate_family
from metagrad.numerics import RngStream, spectral_norm, spectral_norms, standard_normals
from metagrad.tasks import (
    QUADRATIC,
    RANK1MF,
    SMOOTHNESS_INFLATION,
    SMOOTHNESS_SAMPLES,
    SMOOTHNESS_SEED,
    MatrixFactorizationTask,
    QuadraticTask,
    SmoothnessProfile,
    TaskFamily,
    ball_points,
    local_smoothness,
    random_quadratic_family,
    rank1_mf_family,
)
from task_values import task_grad, task_hess, task_value

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hess(grad, x, h=1e-5):
    d = x.size
    out = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[:, j] = (grad(x + e) - grad(x - e)) / (2.0 * h)
    return out


def make_quad(seed, d=4):
    gen = np.random.default_rng(seed)
    g = gen.normal(size=(d, d))
    a = g @ g.T + d * np.eye(d)
    b = gen.normal(size=d)
    return QuadraticTask(a, b, c=float(gen.normal()))


def make_mf(seed, d=4):
    gen = np.random.default_rng(seed)
    return MatrixFactorizationTask(gen.normal(size=d))


# ------------------------------------------------------- quadratic tasks


def test_quad_grad_matches_finite_differences():
    for seed in range(5):
        t = make_quad(seed)
        x = np.random.default_rng(100 + seed).normal(size=t.dim)
        assert np.max(np.abs(task_grad(t, x) - fd_grad(partial(task_value, t), x))) <= 1e-7


def test_quad_hess_is_A():
    t = make_quad(7)
    x = np.ones(t.dim)
    assert np.array_equal(task_hess(t, x), t.A)


def test_quad_task_grads_match_loop():
    fam = TaskFamily([make_quad(8), make_quad(14)])
    X = np.random.default_rng(9).normal(size=(6, fam.dim))
    for i, t in enumerate(fam.tasks):
        loop = np.stack([task_grad(t, x) for x in X])
        assert np.max(np.abs(fam.task_grads(i, X) - loop)) <= 1e-13


def test_quad_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError):
        QuadraticTask(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticTask(np.diag([1.0, -0.1]), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticTask(np.eye(3), np.zeros(2))


# -------------------------------------------------- factorization tasks


def test_mf_gradient_matches_finite_differences():
    for seed in range(5):
        t = make_mf(seed)
        x = np.random.default_rng(200 + seed).normal(size=t.dim)
        assert np.max(np.abs(task_grad(t, x) - fd_grad(partial(task_value, t), x))) <= 1e-6


def test_mf_hessian_matches_finite_differences():
    for seed in range(5):
        t = make_mf(seed)
        x = np.random.default_rng(300 + seed).normal(size=t.dim)
        h = task_hess(t, x)
        assert np.max(np.abs(h - fd_hess(partial(task_grad, t), x))) <= 1e-5
        assert np.max(np.abs(h - h.T)) <= 1e-12


def test_mf_value_at_planted_solution_is_zero():
    t = make_mf(11)
    assert task_value(t, t.g) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(task_grad(t, t.g))) <= 1e-12


def test_mf_task_grads_match_loop():
    fam = TaskFamily([make_mf(12), make_mf(15)])
    X = np.random.default_rng(13).normal(size=(7, fam.dim))
    for i, t in enumerate(fam.tasks):
        loop = np.stack([task_grad(t, x) for x in X])
        assert np.max(np.abs(fam.task_grads(i, X) - loop)) <= 1e-12


# ---------------------------------------------------------- TaskFamily


def test_family_vectorized_oracles_match_loops():
    fam = rank1_mf_family(6, 5, RngStream(21))
    w = np.random.default_rng(22).normal(size=5)
    W = np.random.default_rng(23).normal(size=(6, 5))

    grads_loop = np.stack([task_grad(t, w) for t in fam.tasks])
    assert np.max(np.abs(fam.grads(w) - grads_loop)) <= 1e-12

    rowwise_loop = np.stack([task_grad(t, W[i]) for i, t in enumerate(fam.tasks)])
    assert np.max(np.abs(fam.grads_rowwise(W) - rowwise_loop)) <= 1e-12

    hess_loop = np.stack([task_hess(t, w) for t in fam.tasks])
    assert np.max(np.abs(fam.hessians(w) - hess_loop)) <= 1e-12

    vals_loop = np.array([task_value(t, W[i]) for i, t in enumerate(fam.tasks)])
    assert np.max(np.abs(fam.values_rowwise(W) - vals_loop)) <= 1e-10

    mean_loop = sum(p * task_grad(t, w) for p, t in zip(fam.weights, fam.tasks))
    assert np.max(np.abs(fam.weights @ fam.grads(w) - mean_loop)) <= 1e-12


def test_family_quadratic_vectorized_oracles_match_loops():
    fam = random_quadratic_family(5, 4, RngStream(24))
    w = np.random.default_rng(25).normal(size=4)
    W = np.random.default_rng(26).normal(size=(5, 4))
    assert np.max(np.abs(fam.grads(w) - np.stack([task_grad(t, w) for t in fam.tasks]))) <= 1e-12
    rowwise_loop = np.stack([task_grad(t, W[i]) for i, t in enumerate(fam.tasks)])
    assert np.max(np.abs(fam.grads_rowwise(W) - rowwise_loop)) <= 1e-12
    vals_loop = np.array([task_value(t, W[i]) for i, t in enumerate(fam.tasks)])
    assert np.max(np.abs(fam.values_rowwise(W) - vals_loop)) <= 1e-10


@pytest.mark.parametrize(
    "family",
    [
        rank1_mf_family(20, 5, RngStream(101)),
        rank1_mf_family(9, 1, RngStream(102)),
        random_quadratic_family(20, 5, RngStream(103)),
        random_quadratic_family(6, 17, RngStream(104)),
    ],
    ids=["mf-20x5", "mf-9x1", "quad-20x5", "quad-6x17"],
)
def test_task_grads_rowwise_is_task_grad_bit_for_bit(family):
    # the stacked slot estimator and the Monte Carlo sweeps rely on grads
    # and hessians being exact at one point and at one point per row, for
    # every task in order (the default slice), a strided slice and a gather
    # of sampled slots
    rng = np.random.default_rng(27)
    n, d = family.n_tasks, family.dim

    def check(X, idx=None):  # None: every task through the default idx
        args = (X,) if idx is None else (X, idx)
        tasks = family.tasks if idx is None else [family.tasks[i] for i in np.arange(n)[idx]]
        points = np.broadcast_to(X, (len(tasks), d))
        grads, hessians = family.grads(*args), family.hessians(*args)
        assert grads.shape == (len(tasks), d) and hessians.shape == (len(tasks), d, d)
        V = rng.normal(size=(len(tasks), d))
        hv = np.matvec(hessians, V)
        for j, (t, x) in enumerate(zip(tasks, points)):
            assert np.array_equal(grads[j], task_grad(t, x))
            assert np.array_equal(hessians[j], task_hess(t, x))
            assert np.array_equal(hv[j], task_hess(t, x) @ V[j])

    for _ in range(100):
        scale = rng.uniform(0.1, 3.0)
        W = scale * rng.normal(size=(n, d))
        w = scale * rng.normal(size=d)
        idx = rng.integers(0, n, size=rng.integers(1, 12))
        check(W)
        check(w)
        check(W[1::2], slice(1, None, 2))
        check(w, idx)
        check(np.broadcast_to(w, (idx.size, d)), idx)
        check(scale * rng.normal(size=(idx.size, d)), idx)
        for K in (1, 7):  # every task at each of K points, as outer_stage sweeps a stack
            P = scale * rng.normal(size=(K, d))
            grads, hessians = family.grads(P[:, None, :]), family.hessians(P[:, None, :])
            assert grads.shape == (K, n, d)
            # a quadratic family's Hessians are its one (n, d, d) stack at every point
            assert hessians.shape == ((n, d, d) if family.kind == QUADRATIC else (K, n, d, d))
            hessians = np.broadcast_to(hessians, (K, n, d, d))
            for k, i in np.ndindex(K, n):
                assert np.array_equal(grads[k, i], task_grad(family.tasks[i], P[k]))
                assert np.array_equal(hessians[k, i], task_hess(family.tasks[i], P[k]))


@pytest.mark.parametrize("family", [rank1_mf_family(3, 2, RngStream(105)),
                                    random_quadratic_family(3, 2, RngStream(106))],
                         ids=["mf", "quad"])
def test_family_arrays_are_read_only(family):
    # the oracles hand out views of the stacks (a quadratic's Hessians are
    # the stacked matrices), so no caller may write through them
    stacks = ["_As", "_bs", "_cs"] if family.kind == QUADRATIC else ["_Ms", "_m2"]
    for name in ["weights", "cum_weights", *stacks]:
        with pytest.raises(ValueError, match="read-only"):
            getattr(family, name)[0] = 1.0
    h = family.hessians(np.ones(family.dim))
    if family.kind == QUADRATIC:
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0, 0] = 1.0
    weights = np.full(3, 1.0 / 3.0)
    TaskFamily(family.tasks, weights)
    weights[0] = 0.5  # the caller's array is copied, not frozen


def test_task_arrays_are_read_only_copies():
    # a task keeps the data it validated: writes through it raise, writes to
    # the caller's arrays do not reach it, and its JSON says what it holds
    A, b, g = np.diag([1.0, 2.0]), np.array([0.5, -1.0]), np.array([0.3, 0.4])
    quad, mf = QuadraticTask(A, b, 0.25), MatrixFactorizationTask(g)
    for arr in (quad.A, quad.b, mf.g, mf.M):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] += 1.0
    A[0, 0], b[0], g[0] = 5.0, 7.0, 9.0
    assert quad.A[0, 0] == 1.0 and quad.b[0] == 0.5 and mf.g[0] == 0.3 and mf.M[0, 0] == 0.09
    w = np.array([0.7, -0.2])
    for task in (quad, mf):
        fam = TaskFamily([task])
        back = TaskFamily.from_json(fam.to_json())
        assert back.to_json() == fam.to_json()
        assert np.array_equal(back.grads(w), fam.grads(w))


def test_family_validation():
    t = make_quad(30, d=3)
    with pytest.raises(ValueError):
        TaskFamily([])
    with pytest.raises(ValueError, match="weights must be finite"):
        TaskFamily([t, make_quad(31, d=3)], weights=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        TaskFamily([t], weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        TaskFamily([t], weights=np.array([-1.0]))
    with pytest.raises(ValueError):
        TaskFamily([t], weights=np.array([0.7]))
    with pytest.raises(ValueError):
        TaskFamily([t, make_quad(31, d=4)])


def test_family_kind_comes_from_its_tasks():
    assert TaskFamily([make_quad(33, d=3)]).kind == QUADRATIC
    assert TaskFamily([make_mf(34, d=3)]).kind == RANK1MF
    with pytest.raises(ValueError, match="tasks mix kinds"):
        TaskFamily([make_quad(35, d=3), make_mf(36, d=3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tasks_reject_non_finite_numbers(bad):
    t = make_quad(37, d=2)
    A = t.A.copy()
    A[0, 0] = bad
    for A, b, c in ((A, t.b, 0.0), (t.A, t.b + bad, 0.0), (t.A, t.b, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            QuadraticTask(A, b, c)
    with pytest.raises(ValueError, match="must be finite"):
        MatrixFactorizationTask(np.array([1.0, bad]))


def test_family_weights_default_uniform():
    fam = rank1_mf_family(4, 3, RngStream(32))
    assert np.allclose(fam.weights, 0.25)


# -------------------------------------------------------- serialization


def test_quadratic_family_json_round_trip_bit_exact():
    fam = random_quadratic_family(4, 3, RngStream(40))
    back = TaskFamily.from_json(fam.to_json())
    assert back.kind == fam.kind
    assert np.array_equal(back.weights, fam.weights)
    for t0, t1 in zip(fam.tasks, back.tasks):
        assert np.array_equal(t0.A, t1.A)
        assert np.array_equal(t0.b, t1.b)
        assert t0.c == t1.c


def test_mf_family_json_round_trip_bit_exact():
    fam = rank1_mf_family(5, 4, RngStream(41), scale=0.3)
    back = TaskFamily.from_json(fam.to_json())
    for t0, t1 in zip(fam.tasks, back.tasks):
        assert np.array_equal(t0.g, t1.g)
    assert np.array_equal(back.weights, fam.weights)


def test_family_json_round_trip_with_nonuniform_weights():
    tasks = [make_mf(50, d=3), make_mf(51, d=3), make_mf(52, d=3)]
    w = np.array([0.2, 0.3, 0.5])
    fam = TaskFamily(tasks, weights=w)
    back = TaskFamily.from_json(fam.to_json())
    assert np.array_equal(back.weights, w)


def test_from_dict_rejects_dim_mismatch():
    fam = rank1_mf_family(2, 3, RngStream(42))
    data = fam.to_dict()
    data["dim"] = 7
    with pytest.raises(ValueError):
        TaskFamily.from_dict(data)


# ----------------------------------------------------------- generators


def test_generators_deterministic():
    a = rank1_mf_family(3, 4, RngStream(60), scale=0.5)
    b = rank1_mf_family(3, 4, RngStream(60), scale=0.5)
    assert all(np.array_equal(x.g, y.g) for x, y in zip(a.tasks, b.tasks))
    qa = random_quadratic_family(3, 4, RngStream(61))
    qb = random_quadratic_family(3, 4, RngStream(61))
    assert all(np.array_equal(x.A, y.A) for x, y in zip(qa.tasks, qb.tasks))


def per_key_family(kind, n, d, rng, s):
    """The family built one key at a time, each key drawn on its own
    generator by uniforms and standard_normals: the reference the batched
    generators must reproduce bit for bit."""
    if kind == RANK1MF:
        return [s * standard_normals(rng.child("mf_task", i), d) for i in range(n)]
    lo, hi = 0.5, 2.0
    out = []
    for i in range(n):
        sub = rng.child("quad_task", i)
        lams = lo + (hi - lo) * numerics.uniforms(sub.child("eigs"), d)
        q, _ = np.linalg.qr(standard_normals(sub.child("basis"), (d, d)))
        a = (q * lams) @ q.T
        out.append((0.5 * (a + a.T), s * standard_normals(sub.child("b"), d)))
    return out


@pytest.mark.parametrize("similarity", [1.0, 0.3])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
@pytest.mark.parametrize("n", [1, 7, 50])
@pytest.mark.parametrize("kind", [RANK1MF, QUADRATIC])
def test_generators_draw_every_key_in_one_kernel_call(monkeypatch, kind, n, d, similarity):
    import metagrad.tasks as tasks

    calls = {"keyed": 0, "per_key": 0}

    def counted(name, draw):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return draw(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tasks, "keyed_uniforms", counted("keyed", tasks.keyed_uniforms))
    for name in ("uniforms", "standard_normals"):
        monkeypatch.setattr(tasks, name, counted("per_key", getattr(tasks, name)))
    seed = 100 * n + d
    fam = generate_family({"kind": kind, "n": n, "dim": d, "similarity": similarity, "seed": seed})
    assert calls == {"keyed": 1, "per_key": 0}
    rng = RngStream(seed, ("gen_family",))  # the stream gen-family hands the generator
    want = per_key_family(kind, n, d, rng, similarity)
    assert fam.n_tasks == len(want) == n
    for task, ref in zip(fam.tasks, want):
        if kind == RANK1MF:
            assert np.array_equal(task.g, ref)
        else:
            assert np.array_equal(task.A, ref[0]) and np.array_equal(task.b, ref[1])


def test_quadratic_generator_respects_eig_range():
    fam = random_quadratic_family(5, 4, RngStream(62))
    for t in fam.tasks:
        eigs = np.linalg.eigvalsh(t.A)
        assert eigs.min() >= 0.5 - 1e-9
        assert eigs.max() <= 2.0 + 1e-9


def test_rank1_task_needs_a_vector():
    with pytest.raises(ValueError, match="g must be a vector"):
        MatrixFactorizationTask(np.ones((2, 2)))


def test_family_from_dict_refuses_an_unknown_kind():
    data = {**rank1_mf_family(2, 2, RngStream(64)).to_dict(), "kind": "cubic"}
    with pytest.raises(ValueError, match="unknown family kind 'cubic'"):
        TaskFamily.from_dict(data)


# ------------------------------------------------------ local_smoothness


def test_local_smoothness_quadratic_exact():
    fam = random_quadratic_family(4, 3, RngStream(70))
    prof = local_smoothness(fam, np.zeros(3), radius=2.0)
    assert prof.rho == 0.0
    assert prof.L == pytest.approx(max(spectral_norm(t.A) for t in fam.tasks), rel=1e-9)
    assert prof.sigma > 0.0
    assert prof.sigma_tilde == 0.0 and prof.sigma_H == 0.0


def test_local_smoothness_mf_dominates_fresh_samples():
    fam = rank1_mf_family(4, 4, RngStream(71))
    center = np.zeros(4)
    radius = 2.0
    prof = local_smoothness(fam, center, radius)

    gen = np.random.default_rng(72)
    # 100 fresh points for the L and sigma audits.
    dirs = gen.normal(size=(100, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = center + (radius * gen.random(100) ** 0.25)[:, None] * dirs
    for p in pts:
        for t in fam.tasks:
            assert spectral_norm(task_hess(t, p)) <= prof.L + 1e-9
        mean = fam.weights @ fam.grads(p)
        for t in fam.tasks:
            assert np.linalg.norm(task_grad(t, p) - mean) <= prof.sigma + 1e-9

    # 100 fresh pairs for the rho audit.
    dirs2 = gen.normal(size=(100, 4))
    dirs2 /= np.linalg.norm(dirs2, axis=1, keepdims=True)
    pts2 = center + (radius * gen.random(100) ** 0.25)[:, None] * dirs2
    for p, q in zip(pts, pts2):
        for t in fam.tasks:
            ratio = spectral_norm(task_hess(t, p) - task_hess(t, q)) / np.linalg.norm(p - q)
            assert ratio <= prof.rho + 1e-9


def per_task_local_smoothness(family, center, radius):
    """Reference: each task's Hessians over every point and pair set, one
    task at a time, then the sampled suprema times SMOOTHNESS_INFLATION."""
    rng = RngStream(SMOOTHNESS_SEED, ("local_smoothness",))
    points = ball_points(center, radius, SMOOTHNESS_SAMPLES, rng)
    offsets = standard_normals(rng.child("tight"), points.shape)
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    tight = points + 0.01 * radius * offsets
    radial_hi = ball_points(center, radius, SMOOTHNESS_SAMPLES, rng.child("radial"))
    radial_lo = center + 0.5 * (radial_hi - center)
    pair_sets = [(points[:-1], points[1:]), (points, tight), (radial_lo, radial_hi)]
    hess_sup = ratio_sup = 0.0
    for task in family.tasks:
        h_pts = np.stack([task_hess(task, p) for p in points])
        hess_sup = max(hess_sup, float(np.max(spectral_norms(h_pts))))
        for xs, ys in pair_sets:
            hx = np.stack([task_hess(task, p) for p in xs])
            hy = np.stack([task_hess(task, p) for p in ys])
            num = spectral_norms(hx - hy)
            den = np.linalg.norm(xs - ys, axis=1)
            ratio_sup = max(ratio_sup, float(np.max(num / den)))
    per_task = np.stack([family.grads(p) for p in points])
    mean = np.einsum("n,mnd->md", family.weights, per_task)
    dev = np.linalg.norm(per_task - mean[:, None, :], axis=2)
    return (SMOOTHNESS_INFLATION * hess_sup, SMOOTHNESS_INFLATION * ratio_sup,
            SMOOTHNESS_INFLATION * float(np.max(dev)))


def config_family(name):
    cfg = json.loads((CONFIGS / name).read_text())
    return generate_family(cfg["family"]["generate"]), np.array(cfg["w0"]), cfg["trust_radius"]


@pytest.mark.parametrize(
    "family, center, radius",
    [
        config_family("fig1.json"),
        config_family("fig2.json"),
        (TaskFamily([MatrixFactorizationTask(np.array([1.0, -0.5, 0.25]))]),
         np.array([0.2, 0.1, -0.3]), 1.5),
        (rank1_mf_family(7, 1, RngStream(74)), np.array([0.3]), 2.0),
        (rank1_mf_family(12, 4, RngStream(75)), np.array([0.2, -0.1, 0.4, 0.0]), 1e-6),
        (rank1_mf_family(12, 4, RngStream(76)), np.array([0.2, -0.1, 0.4, 0.0]), 40.0),
        (rank1_mf_family(12, 4, RngStream(77)), np.array([80.0, -60.0, 30.0, 120.0]), 0.5),
        # finite Hessians whose Frobenius norms overflow: nothing can be pruned
        (*config_family("fig1.json")[:2], 1e80),
    ],
    ids=["fig1", "fig2", "mf-one-task", "dim-1", "radius-1e-6", "radius-40", "far-center",
         "fig1-radius-1e80"],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_local_smoothness_equals_per_task_reference(family, center, radius):
    prof = local_smoothness(family, center, radius)
    assert (prof.L, prof.rho, prof.sigma) == per_task_local_smoothness(family, center, radius)


@pytest.mark.parametrize("name, unpruned", [("fig1.json", 7660), ("fig2.json", 19150)])
def test_local_smoothness_decomposes_few_matrices(monkeypatch, name, unpruned):
    # unpruned: 96 points and 95 + 96 + 96 pairs, n Hessians (or
    # differences) each; the Frobenius bounds rule out all but a few groups
    decomposed = []

    def counting(stack):
        decomposed.append(np.prod(stack.shape[:-2]))
        return spectral_norms(stack)

    monkeypatch.setattr(numerics, "spectral_norms", counting)
    family, center, radius = config_family(name)
    assert (2 * SMOOTHNESS_SAMPLES + 95 + 96) * family.n_tasks == unpruned
    local_smoothness(family, center, radius)
    assert 0 < sum(decomposed) <= 0.1 * unpruned


def test_local_smoothness_generated_quadratic_family_exact():
    fam = generate_family({"kind": "quadratic", "n": 20, "dim": 5, "seed": 7})
    prof = local_smoothness(fam, np.zeros(5), radius=3.0)
    assert prof.rho == 0.0
    assert prof.L == max(spectral_norm(t.A) for t in fam.tasks)


def test_local_smoothness_validation():
    fam = rank1_mf_family(2, 3, RngStream(73))
    with pytest.raises(ValueError):
        local_smoothness(fam, np.zeros(3), radius=0.0)


def test_profile_with_noise():
    prof = SmoothnessProfile(L=2.0, rho=1.0, sigma=0.5)
    noisy = prof.with_noise(sigma_tilde=1.0, sigma_H=0.25)
    assert noisy.sigma_tilde == 1.0 and noisy.sigma_H == 0.25
    assert noisy.L == prof.L and prof.sigma_tilde == 0.0
