"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass/fail line (bypassing capture) so a full
run reads as a checklist.  Tolerances and sample sizes are stated
inline; the assertions use exactly those values.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import scipy.optimize

from metagrad.cli import main
from metagrad.closed_form import analyze_quadratic
from metagrad.meta_gradient import exact_grad_F
from metagrad.numerics import RngStream, spectral_norm
from metagrad.optimizer import OptimizerConfig, run, run_comparison
from metagrad.stepsize import StepsizeRule
from metagrad.stochastic import BatchSpec
from metagrad.tasks import (
    QuadraticTask,
    TaskFamily,
    ball_points,
    local_smoothness,
    rank1_mf_family,
    random_quadratic_family,
)
from metagrad.verification import (
    audit_bias,
    audit_grad_gap_F_hat,
    audit_hvp_probe_error,
    audit_kshot_floor,
    audit_smoothness_ratio,
    audit_stepsize_moments,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def exact_run(family, algorithm, alpha, beta, iters, target=0.0, w0=None):
    cfg = OptimizerConfig(
        algorithm=algorithm,
        alpha=alpha,
        stepsize=StepsizeRule(kind="constant", beta=beta),
        max_iters=iters,
        target_grad_norm=target,
        seed=0,
        w0=w0,
        full_task_batch=True,
    )
    with warnings.catch_warnings():
        # the stepsize caps guard the noisy-regime guarantees; these
        # runs are exact, where plain contraction governs stability
        warnings.simplefilter("ignore", UserWarning)
        return run(family, cfg)


def safe_beta(matrix):
    eigs = np.linalg.eigvalsh(matrix)
    return 2.0 / (eigs[0] + eigs[-1])


def contraction_iters(matrix, start_dist, tol):
    """Iterations for gradient descent on a quadratic with iteration
    matrix `matrix` at the midpoint stepsize to shrink start_dist below
    tol."""
    eigs = np.linalg.eigvalsh(matrix)
    rate = (eigs[-1] - eigs[0]) / (eigs[-1] + eigs[0])
    if rate <= 0.0:
        return 1
    return min(10_000, int(np.ceil(np.log(tol / start_dist) / np.log(rate))) + 5)


def fo_fixed_point_iteration(family, alpha, w0, step, tol=1e-14, max_iters=200_000):
    """Independent route to the first-order fixed point: iterate the
    averaged post-adaptation gradient map until it stops moving."""
    w = np.array(w0, dtype=float)
    for _ in range(max_iters):
        g = family.weights @ family.grads_rowwise(w - alpha * family.grads(w))
        w_next = w - step * g
        if np.linalg.norm(w_next - w) <= tol:
            return w_next
        w = w_next
    return w


def test_criterion_01_quadratic_fixed_points(capsys):
    t0 = time.time()
    worst_maml = worst_fo = worst_star = worst_fo_oracle = 0.0
    for i in range(20):
        d = (i % 5) + 1
        n = (i % 10) + 1
        family = random_quadratic_family(n, d, RngStream(7100 + i))
        L = max(spectral_norm(t.A) for t in family.tasks)
        alpha = (1.0 / 6.0) / L
        analysis = analyze_quadratic(family, alpha)
        beta_m = safe_beta(analysis.meta_matrix)
        beta_f = safe_beta(analysis.fo_matrix)

        rec_m = exact_run(family, "maml", alpha, beta_m, 10_000, target=1e-12)
        # no gradient target applies to the first-order run (its exact
        # meta-gradient floors at fo_gap), so size the run by contraction
        iters_f = contraction_iters(
            analysis.fo_matrix, float(np.linalg.norm(analysis.w_fo)) + 1.0, 1e-10
        )
        rec_f = exact_run(family, "fomaml", alpha, beta_f, iters_f)
        worst_maml = max(worst_maml, float(np.linalg.norm(rec_m.iterates[-1] - analysis.w_star)))
        worst_fo = max(worst_fo, float(np.linalg.norm(rec_f.iterates[-1] - analysis.w_fo)))

        root = scipy.optimize.root(
            lambda w: exact_grad_F(family, w, alpha), np.zeros(d), tol=1e-13
        )
        worst_star = max(worst_star, float(np.linalg.norm(root.x - analysis.w_star)))
        w_fp = fo_fixed_point_iteration(family, alpha, np.zeros(d), beta_f)
        worst_fo_oracle = max(worst_fo_oracle, float(np.linalg.norm(w_fp - analysis.w_fo)))
    elapsed = time.time() - t0

    ok = (
        worst_maml <= 1e-8
        and worst_fo <= 1e-8
        and worst_star <= 1e-10
        and worst_fo_oracle <= 1e-10
        and elapsed < 5.0
    )
    report(
        capsys, 1, ok,
        f"20 quadratic families; |w_K-w*|<={worst_maml:.1e}, |w_K-w_FO|<={worst_fo:.1e}, "
        f"oracle cross-checks {worst_star:.1e}/{worst_fo_oracle:.1e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_convergence_floor_separation(capsys):
    tasks = [
        QuadraticTask(np.array([[1.0]]), np.array([1.0])),
        QuadraticTask(np.array([[2.0]]), np.array([-1.0])),
    ]
    family = TaskFamily(tasks)
    alpha = 0.1
    analysis = analyze_quadratic(family, alpha)
    # a step below 1/nu_max of the first-order iteration matrix keeps
    # every mode's decay monotone, so the first-order trajectory never
    # overshoots w_fo toward w* and its floor is exactly the gap
    beta = 1.0 / float(np.linalg.eigvalsh(analysis.fo_matrix)[-1])

    floors = {
        a: exact_run(family, a, alpha, beta, 400).floor
        for a in ("maml", "fomaml", "hfmaml")
    }
    gap_err = abs(floors["fomaml"] - analysis.fo_gap)
    ok = (
        analysis.fo_gap >= 1e-2
        and floors["maml"] <= 1e-8
        and floors["hfmaml"] <= 1e-8
        and gap_err <= 1e-6
    )
    report(
        capsys, 2, ok,
        f"fo_gap={analysis.fo_gap:.4f}; floors maml={floors['maml']:.1e} "
        f"hfmaml={floors['hfmaml']:.1e} fomaml={floors['fomaml']:.6f} (|err|={gap_err:.1e})",
    )
    assert ok


def test_criterion_03_hf_equals_maml_on_quadratics(capsys):
    family = random_quadratic_family(5, 3, RngStream(7300))
    L = max(spectral_norm(t.A) for t in family.tasks)
    cfg = OptimizerConfig(
        algorithm="maml",
        alpha=(1.0 / 6.0) / L,
        stepsize=StepsizeRule(kind="constant", beta=0.05),
        batches=BatchSpec(B=4, D_in=2, D_o=2, D_h=2),
        max_iters=1000,
        seed=0,
        sigma_tilde=0.5,
        sigma_H=0.0,
    )
    recs = run_comparison(family, cfg, algorithms=("maml", "hfmaml"))
    gap = float(np.max(np.abs(recs["maml"].iterates - recs["hfmaml"].iterates)))
    ok = gap <= 1e-10
    report(capsys, 3, ok, f"shared-seed trajectories over 1000 iterations differ by {gap:.2e}")
    assert ok


def test_criterion_04_hvp_probe_error_bound(capsys):
    family = rank1_mf_family(6, 4, RngStream(7400, ("gen_family",)), scale=1.0)
    w0 = np.array([0.4, -0.3, 0.25, 0.2])
    profile = local_smoothness(family, w0, 1.5)
    audit = audit_hvp_probe_error(
        family, profile, (1.0 / 6.0) / profile.L, w0, 0.45, 200,
        RngStream(7401, ("acc", "hvp")),
    )
    ok = audit.passed and audit.samples == 200
    report(
        capsys, 4, ok,
        f"200 probes, worst error/(rho*delta*|v|^2)={audit.measured:.3f} <= 1, zero violations",
    )
    assert ok


def _mf_audit_setup(seed):
    family = rank1_mf_family(6, 4, RngStream(55, ("gen_family",)), scale=1.0)
    w0 = np.array([0.4, -0.3, 0.25, 0.2])
    profile = local_smoothness(family, w0, 1.5)
    root = RngStream(seed, ("acc",))
    w = ball_points(w0, 0.45, 1, root.child("pt"))[0]
    return family, profile, w0, w, root


def test_criterion_05_bias_bound_and_monotonicity(capsys):
    family, profile, _, w, root = _mf_audit_setup(7500)
    alpha = (1.0 / 6.0) / profile.L  # alpha * L = 1/6
    noisy = profile.with_noise(1.0, 0.0)  # sigma_tilde = 1
    measured = []
    all_passed = True
    for d_in in (4, 25, 100):
        audit = audit_bias(family, w, alpha, d_in, 10**6, 100_000, noisy,
                           root.child("bias", d_in))
        measured.append(audit.measured)
        all_passed = all_passed and audit.passed
    decreasing = measured[0] > measured[1] > measured[2]
    ok = all_passed and decreasing
    report(
        capsys, 5, ok,
        "bias at D_in=4/25/100 over 1e5 draws: "
        + "/".join(f"{m:.2e}" for m in measured)
        + f", within bound+4SE={all_passed}, decreasing={decreasing}",
    )
    assert ok


def test_criterion_06_stepsize_moment_bounds(capsys):
    family, profile, w0, _, root = _mf_audit_setup(7600)
    alpha = (1.0 / 6.0) / profile.L
    points = ball_points(w0, 0.45, 10, root.child("pts"))
    audits = audit_stepsize_moments(
        family, profile.with_noise(1.0, 0.0), alpha, points, 60, 60, 100_000,
        root.child("ss"),
    )
    n_pass = sum(a.passed for a in audits)
    ok = n_pass == len(audits) == 20
    report(
        capsys, 6, ok,
        f"1e5 stepsize samples at 10 points: {n_pass}/20 mean/second-moment bounds hold",
    )
    assert ok


def test_criterion_07_estimator_gap_bound(capsys):
    family, profile, _, w, root = _mf_audit_setup(7700)
    alpha = (1.0 / 6.0) / profile.L
    noisy = profile.with_noise(1.0, 0.5)
    results = []
    for d_test in (4, 16, 64):
        audit = audit_grad_gap_F_hat(family, w, alpha, d_test, 30_000, noisy,
                                     root.child("gap", d_test))
        results.append((d_test, audit.measured, audit.bound, audit.passed))
    ok = all(r[3] for r in results)
    report(
        capsys, 7, ok,
        "MC meta-gradient gap within bound+4SE at D_test=4/16/64: "
        + "/".join(f"{m:.1e}<={b:.1e}" for _, m, b, _ in results),
    )
    assert ok


def test_criterion_08_smoothness_property(capsys):
    family, profile, w0, _, root = _mf_audit_setup(7800)
    alpha = (1.0 / 6.0) / profile.L
    audit = audit_smoothness_ratio(family, profile, alpha, w0, 0.45, 500,
                                   root.child("smooth"))
    ok = audit.passed and audit.samples == 500
    report(
        capsys, 8, ok,
        f"500 pairs, worst |gradF(w)-gradF(u)| / (min L |w-u|) = {audit.measured:.3f} <= 1",
    )
    assert ok


def test_criterion_09_figure_reproduction(capsys, tmp_path):
    results = {}
    for name in ("fig1", "fig2", "fig3"):
        out = tmp_path / name
        t0 = time.time()
        with warnings.catch_warnings():
            # every shipped figure runs a constant stepsize, so the
            # adaptive rule's alpha*L cap never warns
            warnings.simplefilter("error", UserWarning)
            code = main([
                "compare", "--config", str(CONFIG_DIR / f"{name}.json"),
                "--out", str(out), "--quiet",
            ])
        elapsed = time.time() - t0
        assert code == 0
        summary = json.loads((out / "compare_summary_seed0.json").read_text())
        results[name] = (summary["floor_ratios"], elapsed)

    fig1_ratio = results["fig1"][0]["fomaml_over_worst_other"]
    fig2_spread = results["fig2"][0]["max_over_min"]
    fig3_ratio = results["fig3"][0]["fomaml_over_worst_other"]
    times_ok = all(elapsed < 60.0 for _, elapsed in results.values())
    ok = fig1_ratio >= 10.0 and fig2_spread <= 2.0 and fig3_ratio >= 5.0 and times_ok
    report(
        capsys, 9, ok,
        f"fig1 FO/others={fig1_ratio:.1f}(>=10), fig2 spread={fig2_spread:.2f}(<=2), "
        f"fig3 FO/others={fig3_ratio:.1f}(>=5), runtimes "
        + "/".join(f"{e:.0f}s" for _, e in results.values()),
    )
    assert ok


def test_criterion_10_kshot_floor_scaling(capsys):
    family = rank1_mf_family(8, 4, RngStream(77, ("gen_family",)), scale=1.0)
    w0 = np.array([0.4, -0.3, 0.25, 0.2])
    profile = local_smoothness(family, w0, 1.5)
    alpha = 0.9 * (1.0 / 6.0) / profile.L
    # full task batch and a huge outer batch suppress the other noise
    # terms, leaving the inner-batch term to set the floor
    cfg = OptimizerConfig(
        algorithm="maml",
        alpha=alpha,
        stepsize=StepsizeRule(kind="constant", beta=0.005),
        batches=BatchSpec(B=1, D_in=4, D_o=10**8, D_h=1),
        max_iters=6000,
        seed=3,
        w0=w0,
        trust_radius=1.5,
        sigma_tilde=1.0,
        sigma_H=0.0,
        full_task_batch=True,
    )
    floors = audit_kshot_floor(family, alpha, [4, 64], cfg,
                               profile=profile.with_noise(1.0, 0.0))
    ratio = floors[0][1] / floors[1][1]
    ok = 2.0 <= ratio <= 8.0
    report(
        capsys, 10, ok,
        f"floor(K=4)={floors[0][1]:.2e}, floor(K=64)={floors[1][1]:.2e}, "
        f"ratio={ratio:.2f} in [2, 8]",
    )
    assert ok


def test_criterion_11_byte_identical_reruns(capsys, tmp_path):
    audit_cfg = {
        "family": {"generate": {"kind": "rank1mf", "n": 4, "dim": 3, "seed": 2}},
        "algorithms": ["maml"],
        "batches": {"B": 20, "D_in": 2, "D_o": 8, "D_h": 2, "B_prime": 40, "D_beta": 40},
        "noise": {"sigma_tilde": 1.0},
        "trust_radius": 2.0,
        "max_iters": 60,
        "audit": {
            "alpha_times_L": 0.15, "n_mc": 2000, "n_probes": 30, "n_pairs": 50,
            "stepsize_points": 2, "stepsize_samples": 1500, "K_list": [2, 8],
        },
    }
    cfg_path = tmp_path / "audit_cfg.json"
    cfg_path.write_text(json.dumps(audit_cfg))

    emitted = {}
    for attempt in ("a", "b"):
        cmp_out = tmp_path / attempt / "cmp"
        audit_out = tmp_path / attempt / "audit"
        assert main(["compare", "--config", str(CONFIG_DIR / "fig1.json"),
                     "--out", str(cmp_out), "--gnuplot", "--quiet"]) == 0
        assert main(["audit", "--config", str(cfg_path),
                     "--out", str(audit_out), "--quiet"]) == 0
        files = sorted(p for p in (tmp_path / attempt).rglob("*") if p.is_file())
        emitted[attempt] = {
            str(p.relative_to(tmp_path / attempt)): p.read_bytes() for p in files
        }

    same_names = set(emitted["a"]) == set(emitted["b"])
    identical = same_names and all(
        emitted["a"][name] == emitted["b"][name] for name in emitted["a"]
    )
    ok = identical and len(emitted["a"]) >= 8
    report(
        capsys, 11, ok,
        f"{len(emitted['a'])} emitted files (CSV/JSON/plot script) byte-identical across reruns",
    )
    assert ok
