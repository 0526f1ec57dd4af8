"""Closed-form fixed points verified by root finding and fixed-point iteration."""

import warnings

import numpy as np
import pytest

from metagrad.errors import IllConditioned
from metagrad.meta_gradient import FOMAML, direction, exact_grad_F
from metagrad.numerics import RngStream
from metagrad.closed_form import QuadraticAnalysis, _weighted_systems, analyze_quadratic
from metagrad.stochastic import BatchSpec, StochasticOracle
from metagrad.tasks import (
    QuadraticTask,
    TaskFamily,
    random_quadratic_family,
    rank1_mf_family,
)

EXACT = StochasticOracle()


def one_d_family():
    return TaskFamily(
        [
            QuadraticTask(np.array([[1.0]]), np.array([1.0])),
            QuadraticTask(np.array([[2.0]]), np.array([-1.0])),
        ],
    )


def bisect_root(fn, lo, hi, tol=1e-13):
    flo = fn(lo)
    assert flo * fn(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if abs(hi - lo) <= tol:
            return mid
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_identical_tasks_collapse_to_task_minimizer():
    t = QuadraticTask(np.diag([2.0, 3.0]), np.array([1.0, -2.0]))
    fam = TaskFamily([t, QuadraticTask(t.A.copy(), t.b.copy())])
    want = np.linalg.solve(t.A, -t.b)
    for alpha in (0.0, 0.05, 0.2):
        an = analyze_quadratic(fam, alpha)
        assert np.allclose(an.w_star, want, atol=1e-12)
        assert np.allclose(an.w_fo, want, atol=1e-12)
    assert analyze_quadratic(fam, 0.1).fo_gap <= 1e-12


def test_one_dimensional_example_values():
    fam = one_d_family()
    an = analyze_quadratic(fam, 0.1)
    assert an.w_star[0] == pytest.approx(-0.085 / 1.045, rel=1e-12)
    assert an.w_fo[0] == pytest.approx(-0.04, rel=1e-12)
    assert an.fo_gap == pytest.approx(0.0432, rel=1e-10)


def test_one_dimensional_star_against_bisection():
    fam = one_d_family()
    root = bisect_root(lambda w: exact_grad_F(fam, np.array([w]), 0.1)[0], -1.0, 1.0)
    assert abs(root - analyze_quadratic(fam, 0.1).w_star[0]) <= 1e-10


def test_w_fo_against_fixed_point_iteration():
    fam = random_quadratic_family(6, 3, RngStream(200), eig_range=(0.5, 2.0))
    alpha = 0.08
    w = np.zeros(3)
    beta = 0.25
    batches = BatchSpec()
    for _ in range(2000):
        step = sum(
            p * direction(FOMAML, t, w, alpha, 0.0, EXACT, batches, RngStream(0))
            for p, t in zip(fam.weights, fam.tasks)
        )
        w = w - beta * step
    assert np.linalg.norm(w - analyze_quadratic(fam, alpha).w_fo) <= 1e-10


def test_w_star_against_gradient_descent_root_finding():
    for seed in (201, 202, 203):
        fam = random_quadratic_family(5, 4, RngStream(seed), eig_range=(0.5, 2.0))
        alpha = 0.08
        w = np.zeros(4)
        eta = 1.0 / (8.0 * 2.0)  # safe for ||meta matrix|| <= 4 L, L <= 2
        for _ in range(5000):
            w = w - eta * exact_grad_F(fam, w, alpha)
        w_star = analyze_quadratic(fam, alpha).w_star
        assert np.linalg.norm(w - w_star) <= 1e-8
        assert np.linalg.norm(exact_grad_F(fam, w_star, alpha)) <= 1e-10


def test_meta_gradient_vanishes_only_at_w_star():
    fam = random_quadratic_family(4, 3, RngStream(204))
    alpha = 0.1
    w_star = analyze_quadratic(fam, alpha).w_star
    assert np.linalg.norm(exact_grad_F(fam, w_star, alpha)) <= 1e-11
    off = w_star + 0.1
    assert np.linalg.norm(exact_grad_F(fam, off, alpha)) > 1e-3


def test_fo_gap_consistent_with_meta_matrix():
    fam = random_quadratic_family(5, 3, RngStream(205))
    alpha = 0.09
    an = analyze_quadratic(fam, alpha)
    # grad F is linear: grad F(w_fo) = meta_matrix (w_fo - w_star).
    want = np.linalg.norm(an.meta_matrix @ (an.w_fo - an.w_star))
    assert an.fo_gap == pytest.approx(want, rel=1e-9)
    gap_at_w_fo = np.linalg.norm(exact_grad_F(fam, an.w_fo, alpha))
    assert an.fo_gap == pytest.approx(gap_at_w_fo, rel=1e-12)


def test_system_matrices_positive_definite():
    fam = random_quadratic_family(6, 4, RngStream(206), eig_range=(0.4, 1.8))
    an = analyze_quadratic(fam, 0.1)
    assert isinstance(an, QuadraticAnalysis)
    assert np.min(np.linalg.eigvalsh(an.meta_matrix)) > 0.0
    assert np.min(np.linalg.eigvalsh(an.fo_matrix)) > 0.0
    assert np.max(np.abs(an.meta_matrix - an.meta_matrix.T)) == 0.0


def test_alpha_zero_limit_matches_mean_minimizer():
    fam = random_quadratic_family(4, 3, RngStream(207))
    a_bar = sum(p * t.A for p, t in zip(fam.weights, fam.tasks))
    b_bar = sum(p * t.b for p, t in zip(fam.weights, fam.tasks))
    want = np.linalg.solve(a_bar, -b_bar)
    an = analyze_quadratic(fam, 0.0)
    assert np.allclose(an.w_star, want, atol=1e-12)
    assert np.allclose(an.w_fo, want, atol=1e-12)
    # Continuity in alpha near zero.
    assert np.linalg.norm(analyze_quadratic(fam, 1e-6).w_star - want) <= 1e-4


def test_rejects_non_quadratic_family():
    fam = rank1_mf_family(3, 3, RngStream(208))
    with pytest.raises(ValueError):
        analyze_quadratic(fam, 0.1)


def test_degenerate_alpha_raises_ill_conditioned():
    # alpha = 1/lambda zeroes the lone eigendirection: singular system.
    fam = TaskFamily([QuadraticTask(np.array([[2.0]]), np.array([1.0]))])
    with pytest.raises(IllConditioned):
        analyze_quadratic(fam, 0.5)


def test_overflowing_alpha_raises_ill_conditioned_quietly():
    # (1 - alpha A)^2 overflows float64; the solver refuses the non-finite
    # system instead of handing it to the factorization
    fam = random_quadratic_family(3, 2, RngStream(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditioned, match="non-finite"):
            analyze_quadratic(fam, 1e200)


def looped_weighted_systems(family, alpha):
    """The per-task loop the stacked systems replace, kept as their reference."""
    d = family.dim
    eye = np.eye(d)
    meta_m, meta_r, fo_m, fo_r = np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, task in zip(family.weights, family.tasks):
            m = eye - alpha * task.A
            m2 = m @ m
            meta_m += p * (m2 @ task.A)
            meta_r += p * (m2 @ task.b)
            fo_m += p * (m @ task.A)
            fo_r += p * (m @ task.b)
    return 0.5 * (meta_m + meta_m.T), meta_r, 0.5 * (fo_m + fo_m.T), fo_r


@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (5, 4), (12, 4), (20, 7)])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.1, 1e200])
def test_stacked_systems_equal_the_per_task_loop_bit_for_bit(n, d, alpha):
    # 1e200 overflows (I - alpha A)^2: both forms must overflow alike
    for seed in range(4):
        fam = random_quadratic_family(n, d, RngStream(seed, ("systems", n, d)))
        if seed % 2:  # a nonuniform p as well
            weights = np.arange(1.0, n + 1.0)
            fam = TaskFamily(fam.tasks, weights=weights / weights.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _weighted_systems(fam, alpha)
        for a, b in zip(got, looped_weighted_systems(fam, alpha)):
            assert a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)
