"""Bound audits: trivial cases exact, noisy cases within stated margins."""

import json
from pathlib import Path

import numpy as np
import pytest

from metagrad import verification
from metagrad.cli import generate_family
from metagrad.meta_gradient import exact_grad_F
from metagrad.numerics import RngStream, standard_normals
from metagrad.optimizer import OptimizerConfig
from metagrad.stepsize import StepsizeRule, required_B_prime, required_D_beta, sample_beta_tilde, smoothness_L_of_w
from metagrad.stochastic import BatchSpec
from metagrad.tasks import ball_points, local_smoothness, random_quadratic_family, rank1_mf_family
from metagrad.verification import (
    BoundAudit,
    audit_bias,
    audit_grad_gap_F_hat,
    audit_hvp_probe_error,
    audit_kshot_floor,
    audit_second_moment,
    audit_smoothness_ratio,
    audit_stepsize_moments,
)
from task_values import task_grad, task_hess

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def mf_setup(seed=0, n=4, d=3, sigma_tilde=1.0, sigma_H=0.0, radius=1.5):
    family = rank1_mf_family(n, d, RngStream(seed))
    center = np.zeros(d)
    profile = local_smoothness(family, center, radius).with_noise(sigma_tilde, sigma_H)
    return family, center, profile


class TestBoundAudit:
    def test_passed_is_derived_from_fields(self):
        ok = BoundAudit(name="x", measured=1.0, bound=1.5, mc_margin=0.0, samples=10)
        assert ok.passed
        edge = BoundAudit(name="x", measured=1.0, bound=0.9, mc_margin=0.1, samples=10)
        assert edge.passed
        bad = BoundAudit(name="x", measured=1.0, bound=0.9, mc_margin=0.05, samples=10)
        assert not bad.passed

    def test_field_validation(self):
        with pytest.raises(ValueError):
            BoundAudit(name="x", measured=0.0, bound=0.0, mc_margin=-1e-9, samples=10)
        with pytest.raises(ValueError):
            BoundAudit(name="x", measured=0.0, bound=0.0, mc_margin=0.0, samples=0)

    def test_json_emission_round_trips(self):
        audits = [
            BoundAudit(name="a", measured=0.25, bound=0.5, mc_margin=0.01, samples=100),
            BoundAudit(name="b", measured=2.0, bound=1.0, mc_margin=0.0, samples=7),
        ]
        text = json.dumps([a.to_dict() for a in audits], sort_keys=True)
        back = json.loads(text)
        assert [a["name"] for a in back] == ["a", "b"]
        assert back[0]["passed"] is True and back[1]["passed"] is False
        assert back[0]["measured"] == 0.25
        assert json.dumps([a.to_dict() for a in audits], sort_keys=True) == text


class TestBiasAudit:
    def test_noise_free_is_exactly_zero(self):
        family, center, profile = mf_setup(sigma_tilde=0.0)
        a = audit_bias(family, center + 0.2, 0.05, 4, 2, 100, profile, RngStream(1))
        assert a.measured == 0.0
        assert a.bound == 0.0
        assert a.passed

    def test_quadratic_bias_vanishes_with_draws(self):
        # affine gradients map inner noise linearly, so the true bias is
        # zero and the estimate must sit inside its own 4 SE margin
        family = random_quadratic_family(3, 3, RngStream(2))
        profile = local_smoothness(family, np.zeros(3), 2.0).with_noise(1.0, 0.0)
        w = np.array([0.3, -0.5, 0.1])
        a = audit_bias(family, w, 0.08, 4, 4, 40_000, profile, RngStream(3))
        assert a.bound > 0.0
        assert a.measured <= a.mc_margin
        assert a.passed

    def test_mf_bias_within_bound_and_decreasing_in_batch(self):
        # D_o is huge so the mean outer noise (a constant offset shared
        # by all three audits) sits far below the inner-noise bias
        family, center, profile = mf_setup(seed=4)
        w = center + 0.3
        alpha = 1.0 / (6.0 * profile.L)
        measured = []
        for d_in in (4, 25, 100):
            a = audit_bias(family, w, alpha, d_in, 1_000_000, 30_000, profile, RngStream(9))
            assert a.passed
            assert a.bound == pytest.approx(alpha * profile.L / np.sqrt(d_in))
            measured.append(a.measured)
        # shared streams across D_in values: larger batches shrink the
        # inner noise scale, and the measured bias with it
        assert measured[0] > measured[1] > measured[2]

    def test_rejects_single_draw(self):
        family, center, profile = mf_setup()
        with pytest.raises(ValueError):
            audit_bias(family, center, 0.05, 4, 2, 1, profile, RngStream(0))


class TestSecondMomentAudit:
    def test_noise_free_equals_adapted_norm(self):
        family, center, profile = mf_setup(sigma_tilde=0.0)
        w = center + 0.25
        a = audit_second_moment(family, w, 0.05, 4, 2, 1.0, 100, profile, RngStream(1))
        g = family.grads(w)
        want = float(
            family.weights @ (np.linalg.norm(family.grads_rowwise(w - 0.05 * g), axis=1) ** 2)
        )
        assert a.measured == pytest.approx(want, rel=1e-12)
        assert a.bound >= 2.0 * want - 1e-12  # (1 + 1/phi) factor with phi = 1
        assert a.passed

    def test_noisy_cases_pass_for_both_kinds(self):
        quad = random_quadratic_family(3, 2, RngStream(6))
        qprof = local_smoothness(quad, np.zeros(2), 2.0).with_noise(1.2, 0.0)
        a = audit_second_moment(
            quad, np.array([0.5, -0.2]), 0.1, 3, 2, 0.5, 20_000, qprof, RngStream(7)
        )
        assert a.passed
        family, center, profile = mf_setup(seed=8)
        b = audit_second_moment(
            family, center + 0.3, 1.0 / (6.0 * profile.L), 5, 3, 2.0, 20_000, profile, RngStream(8)
        )
        assert b.passed

    def test_phi_validation(self):
        family, center, profile = mf_setup()
        with pytest.raises(ValueError):
            audit_second_moment(family, center, 0.05, 4, 2, 0.0, 100, profile, RngStream(0))


class TestGradGapAudit:
    def test_noise_free_gap_is_zero(self):
        family, center, profile = mf_setup(sigma_tilde=0.0, sigma_H=0.0)
        a = audit_grad_gap_F_hat(family, center + 0.2, 0.05, 4, 10, profile, RngStream(1))
        assert a.measured <= 1e-12
        assert a.bound == 0.0

    def test_bound_halves_when_batch_quadruples(self):
        family, center, profile = mf_setup(sigma_tilde=1.0, sigma_H=0.0)
        a4 = audit_grad_gap_F_hat(family, center, 0.05, 4, 10, profile, RngStream(2))
        a16 = audit_grad_gap_F_hat(family, center, 0.05, 16, 10, profile, RngStream(2))
        assert a16.bound == pytest.approx(a4.bound / 2.0, rel=1e-12)

    def test_noisy_gap_within_bound(self):
        family, center, profile = mf_setup(seed=3, sigma_tilde=0.8, sigma_H=0.5)
        w = center + 0.3
        alpha = 1.0 / (6.0 * profile.L)
        for d_test in (4, 16, 64):
            a = audit_grad_gap_F_hat(family, w, alpha, d_test, 30_000, profile, RngStream(4))
            assert a.passed, f"D_test={d_test}: {a.measured} > {a.bound} + {a.mc_margin}"


class TestProbeErrorAudit:
    def test_mf_probes_never_violate(self):
        family, center, profile = mf_setup(sigma_tilde=0.0)
        a = audit_hvp_probe_error(family, profile, 0.1, center, 1.5, 50, RngStream(11))
        assert a.mc_margin == 0.0
        assert a.measured <= 1.0
        assert a.passed
        assert a.samples == 50

    @pytest.mark.parametrize("alpha", [0.1, 0.0], ids=["calibrated", "fallback-width"])
    def test_replays_per_probe_loop_bit_for_bit(self, alpha):
        # white box: probe j tests task j mod n at the j-th ball point along
        # the j-th normal direction, one task and one probe at a time
        family, center, profile = mf_setup(seed=5, n=3, sigma_tilde=0.0)
        n_probes, rng = 40, RngStream(12)
        got = audit_hvp_probe_error(family, profile, alpha, center, 1.5, n_probes, rng)
        points = ball_points(center, 1.5, n_probes, rng.child("points"))
        dirs = standard_normals(rng.child("dirs"), (n_probes, family.dim))
        worst = 0.0
        for j in range(n_probes):
            task, w, v = family.tasks[j % family.n_tasks], points[j], dirs[j]
            base = profile.rho * alpha * float(np.linalg.norm(v))
            delta = 1.0 / (6.0 * base) if base > 0.0 else 1e-3 * (1.0 + float(np.linalg.norm(w)))
            fd = (task_grad(task, w + delta * v) - task_grad(task, w - delta * v)) / (2.0 * delta)
            err = np.linalg.norm(fd - task_hess(task, w) @ v)
            worst = max(worst, float(err / (profile.rho * delta * float(np.linalg.norm(v)) ** 2)))
        assert got.measured == worst

    def test_requires_positive_rho(self):
        family = random_quadratic_family(2, 2, RngStream(0))
        profile = local_smoothness(family, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            audit_hvp_probe_error(family, profile, 0.1, np.zeros(2), 1.0, 10, RngStream(0))


class TestSmoothnessAudit:
    def test_mf_pairs_within_state_dependent_modulus(self):
        family, center, profile = mf_setup(sigma_tilde=0.0)
        alpha = 1.0 / (6.0 * profile.L)
        a = audit_smoothness_ratio(family, profile, alpha, center, 1.5, 200, RngStream(12))
        assert a.measured <= 1.0
        assert a.passed

    def test_quadratic_pairs_within_modulus(self):
        family = random_quadratic_family(4, 3, RngStream(13))
        profile = local_smoothness(family, np.zeros(3), 2.0)
        a = audit_smoothness_ratio(family, profile, 0.05, np.zeros(3), 2.0, 100, RngStream(14))
        assert a.passed


    @pytest.mark.parametrize("kind", ["fig2", "quadratic"])
    def test_replays_per_pair_loop_bit_for_bit(self, kind, monkeypatch):
        # fig2's 50 tasks put 20 pairs in a window, the 8 quadratics 128, so
        # both audits span several windows; pairs 3 and 150 are made coincident
        if kind == "fig2":
            config = json.loads((CONFIGS / "fig2.json").read_text())
            family = generate_family(config["family"]["generate"])
            center, alpha, radius = np.array(config["w0"]), config["alpha"], 0.45
        else:
            family = generate_family({"kind": "quadratic", "n": 8, "dim": 4, "seed": 3})
            center, alpha, radius = np.zeros(4), 0.05, 2.0
        profile = local_smoothness(family, center, 1.0)
        drawn = {}

        def points(c, r, n, rng):
            pts = drawn[rng.path[-1]] = ball_points(c, r, n, rng)
            if rng.path[-1] == "u":  # drawn after "w"
                pts[[3, 150]] = drawn["w"][[3, 150]]
            return pts

        monkeypatch.setattr(verification, "ball_points", points)
        got = audit_smoothness_ratio(family, profile, alpha, center, radius, 500, RngStream(15))
        worst = 0.0
        for w, u in zip(drawn["w"], drawn["u"]):
            sep = float(np.linalg.norm(w - u))
            if sep == 0.0:
                continue
            gap = float(np.linalg.norm(exact_grad_F(family, w, alpha) - exact_grad_F(family, u, alpha)))
            modulus = min(
                4.0 * profile.L + 2.0 * profile.rho * alpha * float(
                    family.weights @ np.linalg.norm(family.grads(x), axis=1))
                for x in (w, u))
            worst = max(worst, gap / (modulus * sep))
        assert (got.name, got.measured, got.bound, got.mc_margin, got.samples) == (
            "smoothness_ratio", worst, 1.0, 0.0, 500)
        assert worst > 0.0


class TestStepsizeMomentsAudit:
    def test_moments_pass_and_match_manual_samples(self):
        family, center, profile = mf_setup(seed=5, sigma_tilde=0.5)
        alpha = 1.0 / (6.0 * profile.L)
        bp = required_B_prime(profile, alpha)
        db = required_D_beta(profile, alpha)
        points = np.stack([center + 0.1, center - 0.2, center + 0.35])
        rng = RngStream(21)
        audits = audit_stepsize_moments(family, profile, alpha, points, bp, db, 4000, rng)
        assert len(audits) == 6
        assert all(a.passed for a in audits)
        # names index the points; the mean audit is the recast lower bound
        assert audits[0].name == "stepsize_mean_lower[0]"
        assert audits[5].name == "stepsize_second_moment[2]"
        samples = sample_beta_tilde(
            family, profile, points[1], alpha, bp, db, 4000, rng.child("point", 1)
        )
        l_w = smoothness_L_of_w(family, profile, points[1], alpha)
        assert audits[2].measured == pytest.approx(0.8 / l_w - samples.mean(), rel=1e-12)
        assert audits[3].measured == pytest.approx((samples**2).mean(), rel=1e-12)


class TestKshotFloorAudit:
    def base_config(self, beta, **kw):
        defaults = dict(
            algorithm="maml",
            alpha=0.05,
            stepsize=StepsizeRule(kind="constant", beta=beta),
            batches=BatchSpec(B=8, D_in=1, D_o=8, D_h=1),
            max_iters=150,
            seed=3,
        )
        defaults.update(kw)
        return OptimizerConfig(**defaults)

    def test_noise_free_floors_all_tiny(self):
        # zero data noise and the full task sweep: plain exact descent,
        # so every K reaches machine-level floors
        family = random_quadratic_family(4, 2, RngStream(15))
        cfg = self.base_config(0.2, max_iters=400, full_task_batch=True)
        floors = audit_kshot_floor(family, 0.05, [1, 4], cfg)
        assert [k for k, _ in floors] == [1, 4]
        assert all(f <= 1e-8 for _, f in floors)

    def test_noisy_floor_shrinks_with_k(self):
        family = random_quadratic_family(6, 2, RngStream(16))
        cfg = self.base_config(0.1, sigma_tilde=2.0, max_iters=250)
        floors = dict(audit_kshot_floor(family, 0.1, [1, 16], cfg))
        assert floors[16] < floors[1]

    def test_rejects_unsorted_or_empty_k(self):
        family = random_quadratic_family(3, 2, RngStream(17))
        cfg = self.base_config(0.1)
        with pytest.raises(ValueError):
            audit_kshot_floor(family, 0.05, [16, 4], cfg)
        with pytest.raises(ValueError):
            audit_kshot_floor(family, 0.05, [], cfg)
        with pytest.raises(ValueError):
            audit_kshot_floor(family, 0.05, [0, 4], cfg)


class TestDeterminism:
    def test_audits_identical_under_same_stream(self):
        family, center, profile = mf_setup(seed=6)
        w = center + 0.2
        a = audit_bias(family, w, 0.05, 4, 2, 500, profile, RngStream(30))
        b = audit_bias(family, w, 0.05, 4, 2, 500, profile, RngStream(30))
        assert a == b
        c = audit_bias(family, w, 0.05, 4, 2, 500, profile, RngStream(31))
        assert c.measured != a.measured
