"""Optimizer loop: convergence to closed-form targets, pairing, logging."""

import argparse
import importlib
import json
import pkgutil
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import metagrad
from metagrad import numerics, optimizer
from metagrad.cli import generate_family, load_config, prepare

from metagrad.closed_form import analyze_quadratic
from metagrad.errors import DivergenceDetected, InvalidBatchConfig, NumericalFailure
from metagrad.meta_gradient import (ALGORITHMS, FOMAML, HFMAML, MAML, direction, exact_grad_F,
                                    outer_stage, slot_directions, slot_noise, slot_sites, value_F)
from metagrad.numerics import RngStream
from metagrad.optimizer import (
    CSV_HEADER,
    OptimizerConfig,
    _slot_direction,
    run,
    run_comparison,
    validate_config,
)
from metagrad.stepsize import ADAPTIVE_FRACTIONS, StepsizeRule, beta_tilde
from metagrad.stochastic import BatchSpec, StochasticOracle, sample_task_batch
from metagrad.tasks import (
    QuadraticTask,
    SmoothnessProfile,
    TaskFamily,
    local_smoothness,
    random_quadratic_family,
    rank1_mf_family,
)
from records import parse_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIG1 = json.loads((CONFIGS / "fig1.json").read_text())
FIG2 = json.loads((CONFIGS / "fig2.json").read_text())


def one_d_example_family():
    tasks = [
        QuadraticTask(np.array([[1.0]]), np.array([1.0])),
        QuadraticTask(np.array([[2.0]]), np.array([-1.0])),
    ]
    return TaskFamily(tasks)


def safe_constant_beta(family, alpha):
    """2 / (lmax + lmin) for the quadratic meta map, the classic optimum."""
    analysis = analyze_quadratic(family, alpha)
    eigs = np.linalg.eigvalsh(analysis.meta_matrix)
    return 2.0 / (eigs[-1] + eigs[0])


EXACT_FULL_BATCH = {"full_task_batch": True, "sigma_tilde": 0.0, "sigma_H": 0.0}


def exact_config(algorithm, beta, **kw):
    defaults = dict(
        algorithm=algorithm,
        alpha=0.1,
        stepsize=StepsizeRule(kind="constant", beta=beta),
        full_task_batch=True,
        max_iters=400,
    )
    defaults.update(kw)
    return OptimizerConfig(**defaults)


class TestExactConvergence:
    def test_maml_reaches_closed_form_fixed_point(self):
        family = random_quadratic_family(6, 4, RngStream(3))
        analysis = analyze_quadratic(family, 0.1)
        beta = safe_constant_beta(family, 0.1)
        rec = run(family, exact_config(MAML, beta, target_grad_norm=1e-13))
        assert rec.stop_reason == "target"
        assert np.linalg.norm(rec.iterates[-1] - analysis.w_star) <= 1e-10
        assert rec.dist_wstar[-1] <= 1e-10

    @pytest.mark.parametrize("gap", [1e-7, 1e-5])
    def test_nearly_repeated_leading_eigenvalue_sets_up(self, gap):
        # two leading eigenvalues this close once stalled the set-up eigen-solver
        family = TaskFamily([QuadraticTask(np.diag([1.0, 1.0 + gap]), np.ones(2))])
        rec = run(family, exact_config(MAML, 0.5, max_iters=5))
        assert rec.steps_taken == 5
        assert np.all(np.isfinite(rec.grad_norm_F))

    def test_hfmaml_matches_maml_trajectory_noise_free(self):
        # exact finite differences on quadratics make the probe an exact
        # Hessian-vector product, so the two methods coincide pointwise
        family = random_quadratic_family(5, 3, RngStream(4))
        beta = safe_constant_beta(family, 0.1)
        recs = run_comparison(
            family,
            exact_config(MAML, beta, max_iters=120),
            algorithms=(MAML, HFMAML),
        )
        gap = np.abs(recs[MAML].iterates - recs[HFMAML].iterates).max()
        assert gap <= 1e-9

    def test_fomaml_reaches_its_own_fixed_point_not_wstar(self):
        family = one_d_example_family()
        analysis = analyze_quadratic(family, 0.1)
        rec = run(family, exact_config(FOMAML, 0.4, max_iters=600))
        assert abs(rec.iterates[-1][0] - analysis.w_fo[0]) <= 1e-12
        # the exact meta-gradient norm stalls at the fixed-point gap
        assert abs(rec.final_grad_norm - analysis.fo_gap) <= 1e-10
        assert rec.floor >= analysis.fo_gap - 1e-12

    def test_full_batch_step_equals_weighted_per_task_directions(self):
        family = random_quadratic_family(4, 3, RngStream(9))
        oracle = StochasticOracle(0.0, 0.0)
        batches = BatchSpec()
        w0 = np.array([0.3, -0.2, 0.5])
        beta = 0.05
        for algo in (MAML, FOMAML, HFMAML):
            rec = run(
                family,
                exact_config(algo, beta, w0=w0, max_iters=1),
            )
            acc = np.zeros(3)
            for i, task in enumerate(family.tasks):
                acc += family.weights[i] * direction(
                    algo, task, w0, 0.1, 0.0, oracle, batches, RngStream(0).child(0, "slot", i)
                )
            manual = w0 - beta * acc
            assert np.linalg.norm(rec.iterates[-1] - manual) <= 1e-12

    def test_loss_monotone_under_safe_step(self):
        family = random_quadratic_family(5, 4, RngStream(11))
        beta = safe_constant_beta(family, 0.1)
        rec = run(family, exact_config(MAML, beta, max_iters=60))
        assert np.all(np.diff(rec.loss_F) <= 1e-15)


def fig1_family():
    return generate_family(FIG1["family"]["generate"])


def step_draw(family, cfg, oracle, rng):
    """The draws of one step on rng's key, as run() draws step k's on (seed, k):
    B tasks on rng + "tasks" (a full batch's are tasks 0..n-1), slot j's noise
    on rng + ("slot", j)."""
    if cfg.full_task_batch:
        idx, B = slice(None), family.n_tasks
    else:
        B = cfg.batches.B
        idx = sample_task_batch(family, rng.child("tasks").generator().random(B))
    rows = numerics.keyed_uniforms([rng], slot_sites(cfg.algorithm, family.dim, oracle, B))
    return idx, slot_noise(family.dim, oracle, cfg.batches, rows)


def slot_direction(algorithm, task, w, alpha, rho, oracle, batches, slot_key):
    """One task's direction with each site's noise drawn on slot_key + (site,):
    slot j of step k's for slot_key (seed, k, "slot", j)."""
    sites = {site: ([numerics.path_key(b"", site)], words)
             for site, (_, words) in slot_sites(algorithm, task.dim, oracle, 1).items()}
    noise = slot_noise(task.dim, oracle, batches, numerics.keyed_uniforms([slot_key], sites))
    return slot_directions(algorithm, TaskFamily([task]), slice(None), w, alpha, rho, noise)[0]


def run_width(family, cfg):
    """The most rows one iterate of cfg's run puts into a stacked call: its
    sweep over the tasks, its slots or its stepsize sample.  BLOCK_ROWS =
    m * run_width gives run() blocks of m iterates."""
    slots = 0 if cfg.full_task_batch else cfg.batches.B
    adaptive = cfg.stepsize.kind == "adaptive"
    return max(family.n_tasks, slots, cfg.batches.B_prime if adaptive else 1)


def block_lengths(monkeypatch):
    """A list that gains, per block of iterates run() logs from here on, the
    block's number of iterates: run() reads a block's losses off one
    stacked adapted_value call."""
    lengths = []

    def counted(family, adapted, _value=optimizer.adapted_value):
        lengths.append(len(adapted))
        return _value(family, adapted)

    monkeypatch.setattr(optimizer, "adapted_value", counted)
    return lengths


def blocks_of(m, rows):
    """The lengths of consecutive blocks of m iterates over rows iterates."""
    return [min(m, rows - r) for r in range(0, rows, m)]


class TestStackedExactSweep:
    """The exact full-batch steps against the public per-task and family oracles."""

    @staticmethod
    def stacked_and_looped(family, w, alpha, rho):
        oracle, batches, rng = StochasticOracle(0.0, 0.0), BatchSpec(), RngStream(5)
        cfg = OptimizerConfig(algorithm=HFMAML, alpha=alpha, batches=batches,
                              stepsize=StepsizeRule(kind="constant", beta=0.1),
                              full_task_batch=True)
        stacked = _slot_direction(family, cfg, w, rho, step_draw(family, cfg, oracle, rng))
        looped = np.zeros(family.dim)
        for i, task in enumerate(family.tasks):
            looped += family.weights[i] * direction(
                HFMAML, task, w, alpha, rho, oracle, batches, rng.child("slot", i)
            )
        return stacked, looped

    @pytest.mark.parametrize("alpha", [FIG1["alpha"], 0.05])
    def test_hfmaml_matches_per_task_loop_on_fig1_family(self, alpha):
        family = fig1_family()
        w0 = np.array(FIG1["w0"])
        rho = local_smoothness(family, w0, FIG1["trust_radius"]).rho
        rng = np.random.default_rng(31)
        for _ in range(200):
            w = w0 + rng.uniform(0.1, 2.0) * rng.normal(size=family.dim)
            stacked, looped = self.stacked_and_looped(family, w, alpha, rho)
            assert np.array_equal(stacked, looped)

    def test_hfmaml_matches_per_task_loop_at_zero_curvature_bound(self):
        # rho = 0 on quadratics: every probe takes the fallback width
        family = generate_family({"kind": "quadratic", "n": 20, "dim": 5, "seed": 7})
        rng = np.random.default_rng(32)
        for _ in range(200):
            w = rng.uniform(0.1, 3.0) * rng.normal(size=family.dim)
            stacked, looped = self.stacked_and_looped(family, w, 0.1, 0.0)
            assert np.array_equal(stacked, looped)

    def test_hfmaml_matches_per_task_loop_at_zero_probe(self):
        # every task gradient vanishes at the origin, so no task is probed
        family = fig1_family()
        stacked, looped = self.stacked_and_looped(family, np.zeros(family.dim), 0.05, 20.0)
        assert np.array_equal(stacked, looped)
        assert not np.any(stacked)

    def test_hfmaml_matches_per_task_loop_below_probe_tolerance(self):
        # at a planted solution the probe vector is rounding noise, nonzero
        # but below ZERO_PROBE_TOL, so the guard alone decides the step
        for task in fig1_family().tasks[:5]:
            family = TaskFamily([task])
            stacked, looped = self.stacked_and_looped(family, task.g, 0.05, 20.0)
            assert np.array_equal(stacked, looped)

    def test_fused_maml_step_is_exact_grad_F(self):
        alpha, beta = FIG1["alpha"], FIG1["stepsize"]["beta"]
        family = fig1_family()
        rec = run(family, exact_config(
            MAML, beta, alpha=alpha, w0=np.array(FIG1["w0"]), trust_radius=FIG1["trust_radius"],
            max_iters=40,
        ))
        assert rec.steps_taken == 40
        for k in range(rec.steps_taken):
            w = rec.iterates[k]
            g = exact_grad_F(family, w, alpha)
            assert rec.grad_norm_F[k] == np.linalg.norm(g)
            assert np.array_equal(rec.iterates[k + 1], w - beta * g)


class TestSlotLoopReplay:
    """Noisy steps against a slot loop written out from the documented
    streams.  run() draws blocks of 7 steps ahead here, so each 20-step run
    crosses two block boundaries."""

    @staticmethod
    def replayed_step(family, cfg, rho, w, k):
        oracle = StochasticOracle(cfg.sigma_tilde, cfg.sigma_H)
        root = RngStream(cfg.seed)

        def slot(j, i):
            return slot_direction(cfg.algorithm, family.tasks[i], w, cfg.alpha, rho, oracle,
                                  cfg.batches, root.child(k, "slot", j))

        acc = np.zeros(family.dim)
        if cfg.full_task_batch:
            for i in range(family.n_tasks):
                acc += family.weights[i] * slot(i, i)
            return acc
        tasks = sample_task_batch(family, root.child(k, "tasks").generator().random(cfg.batches.B))
        for j, i in enumerate(tasks):
            acc += slot(j, i)
        return acc / cfg.batches.B

    @staticmethod
    def replayed_beta(family, cfg, profile, w, k):
        if cfg.stepsize.kind == "constant":
            return cfg.stepsize.beta
        b = cfg.batches
        rng = numerics.path_key(RngStream(cfg.seed), k)  # the step key
        return cfg.stepsize.resolve_fraction(cfg.algorithm) * beta_tilde(
            family, profile, w, cfg.alpha, b.B_prime, b.D_beta, rng)

    @staticmethod
    def fig2_config(algorithm, **overrides):
        return OptimizerConfig(**{
            "algorithm": algorithm, "alpha": FIG2["alpha"], "max_iters": 20, "seed": 3,
            "stepsize": StepsizeRule(kind="constant", beta=FIG2["stepsize"]["beta"]),
            "batches": BatchSpec(B=5, D_in=4, D_o=4, D_h=4), "w0": np.array(FIG2["w0"]),
            "trust_radius": FIG2["trust_radius"], "sigma_tilde": 0.5, "sigma_H": 0.5,
            **overrides})

    def check_replay(self, monkeypatch, cfg):
        family = generate_family(FIG2["family"]["generate"])
        profile = local_smoothness(family, cfg.w0, cfg.trust_radius)
        monkeypatch.setattr(numerics, "BLOCK_ROWS", 7 * run_width(family, cfg))
        lengths = block_lengths(monkeypatch)
        rec = run(family, cfg, profile=profile)
        assert rec.steps_taken == 20
        assert lengths == [7, 7, 7]  # the 20 steps' iterates and the terminal row
        noisy_profile = profile.with_noise(cfg.sigma_tilde, cfg.sigma_H)
        oracle = StochasticOracle(cfg.sigma_tilde, cfg.sigma_H)
        for k in range(rec.steps_taken):
            w = rec.iterates[k]
            beta = self.replayed_beta(family, cfg, noisy_profile, w, k)
            step = self.replayed_step(family, cfg, profile.rho, w, k)
            assert rec.beta[k] == beta
            assert np.array_equal(rec.iterates[k + 1], w - beta * step)
            # the iterate absorbs the step's last bits; compare the step itself
            draw = step_draw(family, cfg, oracle, RngStream(cfg.seed).child(k))
            got = _slot_direction(family, cfg, w, profile.rho, draw)
            assert np.array_equal(got, step)

    @pytest.mark.parametrize("full_task_batch", [False, True], ids=["sampled", "full-batch"])
    @pytest.mark.parametrize("algorithm", [MAML, FOMAML, HFMAML])
    def test_steps_replay_bit_for_bit(self, monkeypatch, algorithm, full_task_batch):
        self.check_replay(monkeypatch, self.fig2_config(algorithm, full_task_batch=full_task_batch))

    @pytest.mark.parametrize("algorithm", [MAML, FOMAML, HFMAML])
    def test_adaptive_steps_replay_bit_for_bit(self, monkeypatch, algorithm):
        self.check_replay(monkeypatch, self.fig2_config(
            algorithm, stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20, D_in=4, D_o=4, D_h=4, B_prime=20, D_beta=20)))

    @pytest.mark.parametrize("algorithm", [MAML, FOMAML, HFMAML])
    def test_direction_on_the_step_key_replays_a_one_slot_step(self, algorithm):
        # read on step k's key (seed, k), direction is the step's slot 0 as
        # run() draws it, so with B = 1 it is the step itself; beta_tilde on
        # that key replays the stepsize in the adaptive replays above
        family = generate_family(FIG2["family"]["generate"])
        cfg = self.fig2_config(algorithm, batches=BatchSpec(B=1, D_in=4, D_o=4, D_h=4))
        profile = local_smoothness(family, cfg.w0, cfg.trust_radius)
        oracle = StochasticOracle(cfg.sigma_tilde, cfg.sigma_H)
        rec, root = run(family, cfg, profile=profile), RngStream(cfg.seed)
        for k in (0, 1, 7, 19):
            w = rec.iterates[k]
            (i,) = sample_task_batch(family, root.child(k, "tasks").generator().random(1))
            step = direction(algorithm, family.tasks[i], w, cfg.alpha, profile.rho, oracle,
                             cfg.batches, numerics.path_key(root, k))
            assert np.array_equal(rec.iterates[k + 1], w - rec.beta[k] * step)

    @pytest.mark.parametrize("case", ["sampled", "full-batch", "adaptive", "exact-sampled",
                                      "exact-full-batch"])
    def test_records_do_not_depend_on_block_length(self, monkeypatch, case):
        # exact-full-batch MAML and FO-MAML fill the stage rows as they step
        overrides = {
            "sampled": {},
            "full-batch": {"full_task_batch": True},
            "adaptive": {"stepsize": StepsizeRule(kind="adaptive"),
                         "batches": BatchSpec(B=20, D_in=4, D_o=4, D_h=4, B_prime=20, D_beta=20)},
            "exact-sampled": {"sigma_tilde": 0.0, "sigma_H": 0.0},
            "exact-full-batch": EXACT_FULL_BATCH,
        }[case]
        family = generate_family(FIG2["family"]["generate"])
        default, lengths = numerics.BLOCK_ROWS, block_lengths(monkeypatch)
        for algorithm in (MAML, FOMAML, HFMAML):
            cfg = self.fig2_config(algorithm, max_iters=30, **overrides)
            profile = local_smoothness(family, cfg.w0, cfg.trust_radius)
            width, records = run_width(family, cfg), []
            for rows, m in ((default, default // width), (1, 1), (3 * width, 3), (7 * width, 7)):
                monkeypatch.setattr(numerics, "BLOCK_ROWS", rows)
                lengths.clear()
                records.append(run(family, cfg, profile=profile))
                assert lengths == blocks_of(m, 31), (algorithm, rows)
            for rec in records[1:]:
                assert rec.to_csv() == records[0].to_csv()
                assert np.array_equal(rec.iterates, records[0].iterates)

    @pytest.mark.parametrize("algorithm, overrides", [
        (MAML, {}), (MAML, EXACT_FULL_BATCH), (FOMAML, EXACT_FULL_BATCH)],
        ids=["sampled-maml", "exact-full-batch-maml", "exact-full-batch-fomaml"])
    def test_target_stop_mid_block_is_a_prefix(self, monkeypatch, algorithm, overrides):
        family = generate_family(FIG2["family"]["generate"])
        # an iterate is n_tasks rows: blocks grow 1, 2, 4, then 7 iterates
        monkeypatch.setattr(numerics, "BLOCK_ROWS", 7 * family.n_tasks)
        cfg = self.fig2_config(algorithm, max_iters=40, **overrides)
        profile = local_smoothness(family, cfg.w0, cfg.trust_radius)
        full = run(family, cfg, profile=profile)
        # the first new minimum inside a block, with block rows on both sides:
        # a target there stops the run at that row
        starts = {k0 for k0, _ in numerics.row_blocks(41, family.n_tasks, grow=True)}
        stop = next(k for k in range(1, 40) if not {k, k + 1} & starts
                    and full.grad_norm_F[k] < np.min(full.grad_norm_F[:k]))
        rec = run(family, replace(cfg, target_grad_norm=full.grad_norm_F[stop]), profile=profile)
        assert rec.stop_reason == "target" and rec.steps_taken == stop
        assert np.array_equal(rec.iterates, full.iterates[:stop + 1])
        assert np.array_equal(rec.grad_norm_F, full.grad_norm_F[:stop + 1])
        assert np.array_equal(rec.loss_F, full.loss_F[:stop + 1])
        assert np.array_equal(rec.beta[:stop], full.beta[:stop]) and np.isnan(rec.beta[stop])


class TestKeyedDraws:
    """Keyed RNG draws per step of run(): one per key handed to
    keyed_uniforms (its prefixes times every site's suffixes), and one per
    uniforms or standard_normals call, wherever a metagrad module calls
    them from.  HF-MAML's probe draws no noise, so its step draws as many
    keys as FO-MAML's."""

    PER_STEP = {MAML: 31, FOMAML: 21, HFMAML: 21}  # fig2 at seed 0
    ADAPTIVE_PER_STEP = {MAML: 82, FOMAML: 62, HFMAML: 62}  # and with audit-mf's batches

    @pytest.mark.parametrize("name, per_step", [
        ("fig1", {MAML: 0, FOMAML: 0, HFMAML: 0}),
        ("fig2", PER_STEP),
    ])
    def test_draws_per_step_at_seed_0(self, monkeypatch, name, per_step):
        self.check_draws(monkeypatch, name, per_step)

    def test_a_run_that_draws_nothing_makes_no_kernel_call(self, monkeypatch):
        # fig1's exact full batches draw no key, so no block calls the drawer
        # or the kernel and no step builds its key (seed, k); a fig2 sampled
        # run still builds each step's key once, in step order
        calls, drawers, keys = [], [], []

        def logged(log, fn):
            def call(*args):
                log.append(args)
                return fn(*args)
            return call

        monkeypatch.setattr(optimizer, "keyed_uniforms", logged(calls, optimizer.keyed_uniforms))
        monkeypatch.setattr(optimizer, "_drawn_steps", logged(drawers, optimizer._drawn_steps))
        monkeypatch.setattr(optimizer, "path_key", logged(keys, optimizer.path_key))
        for name in ("fig1", "fig2"):
            resolved, config_dir = load_config(str(CONFIGS / f"{name}.json"), argparse.Namespace())
            family, base, profile = prepare(resolved, config_dir)
            for algorithm in (MAML, FOMAML, HFMAML):
                keys.clear()
                run(family, replace(base, algorithm=algorithm, max_iters=20), profile=profile)
                step_keys = [labels for rng, *labels in keys if isinstance(rng, RngStream)]
                if name == "fig1":
                    assert calls == [] and drawers == [] and keys == []
                else:
                    assert step_keys == [[k] for k in range(20)], algorithm
        assert calls and drawers  # fig2's runs draw

    def test_adaptive_stepsize_draws_per_step(self, monkeypatch):
        # audit-mf's shape: 1 + 3 B for a MAML step, 1 + 2 B for the others, and 1 + B'
        # for the stepsize sample, one key per slot stream of beta_tilde
        batches = BatchSpec(B=20, D_in=4, D_o=4, D_h=4, B_prime=20, D_beta=20)
        self.check_draws(monkeypatch, "fig2", self.ADAPTIVE_PER_STEP,
                         stepsize=StepsizeRule(kind="adaptive"), batches=batches)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["constant", "adaptive"])
    def test_draws_per_step_across_blocks(self, monkeypatch, adaptive):
        # blocks of 3 steps: 20 steps are six blocks and a short one, and
        # no block draws past max_iters
        if adaptive:
            batches = BatchSpec(B=20, D_in=4, D_o=4, D_h=4, B_prime=20, D_beta=20)
            self.check_draws(monkeypatch, "fig2", self.ADAPTIVE_PER_STEP, block=3,
                             stepsize=StepsizeRule(kind="adaptive"), batches=batches)
        else:
            self.check_draws(monkeypatch, "fig2", self.PER_STEP, block=3)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["constant", "adaptive"])
    def test_a_target_run_draws_only_the_steps_its_blocks_take(self, monkeypatch, adaptive):
        # a run with a target grows its blocks from one step, so one that
        # stops at row s has drawn at most 2 s + 1 steps, not max_iters
        per_step, overrides = self.PER_STEP, {}
        if adaptive:
            per_step = self.ADAPTIVE_PER_STEP
            overrides = {"stepsize": StepsizeRule(kind="adaptive"),
                         "batches": BatchSpec(B=20, D_in=4, D_o=4, D_h=4, B_prime=20, D_beta=20)}
        resolved, config_dir = load_config(str(CONFIGS / "fig2.json"), argparse.Namespace())
        family, base, profile = prepare(resolved, config_dir)
        calls = self.counted_draws(monkeypatch)
        for algorithm, expected in per_step.items():
            cfg = replace(base, algorithm=algorithm, seed=0, max_iters=60, **overrides)
            full = run(family, cfg, profile=profile)
            norms = full.grad_norm_F
            for row in (1, 3, 10):  # the first new minimum from row on
                stop = next(k for k in range(row, 61) if norms[k] < np.min(norms[:k]))
                calls.clear()
                rec = run(family, replace(cfg, target_grad_norm=norms[stop]), profile=profile)
                assert rec.stop_reason == "target" and rec.steps_taken == stop
                assert len(calls) <= (2 * stop + 1) * expected, (algorithm, stop)
                assert np.array_equal(rec.iterates, full.iterates[:stop + 1])
                assert np.array_equal(rec.grad_norm_F, norms[:stop + 1])
                assert np.array_equal(rec.loss_F, full.loss_F[:stop + 1])
                assert np.array_equal(rec.beta[:stop], full.beta[:stop])

    @pytest.mark.parametrize("case", ["constant", "adaptive", "full-batch"])
    def test_each_block_draws_in_one_kernel_call_on_its_step_keys(self, monkeypatch, case):
        # blocks of 7 steps: 20 steps are three kernel calls, each handed its
        # block's step keys as the one prefix list with every site of the
        # steps, and the kernel absorbs each key into the root state once
        sites = {MAML: 4, FOMAML: 3, HFMAML: 3}  # task batch, inner, outer, MAML's hess
        overrides = {
            "constant": {},
            "adaptive": {"stepsize": StepsizeRule(kind="adaptive"),
                         "batches": BatchSpec(B=20, D_in=4, D_o=4, D_h=4, B_prime=20, D_beta=20)},
            "full-batch": {"full_task_batch": True},
        }[case]
        extra = {"constant": 0, "adaptive": 2, "full-batch": -1}[case]
        resolved, config_dir = load_config(str(CONFIGS / "fig2.json"), argparse.Namespace())
        family, base, profile = prepare(resolved, config_dir)
        monkeypatch.setattr(numerics, "BLOCK_ROWS", 7 * family.n_tasks)
        copies, calls = [], []

        class CountedRoot:
            def copy(self, _root=numerics._ROOT):
                copies.append(1)
                return _root.copy()

        def keyed(prefixes, call_sites, _draw=numerics.keyed_uniforms):
            before = len(copies)
            rows = _draw(prefixes, call_sites)
            calls.append((list(prefixes), len(copies) - before, len(call_sites)))
            return rows

        monkeypatch.setattr(numerics, "_ROOT", CountedRoot())
        monkeypatch.setattr(optimizer, "keyed_uniforms", keyed)
        keys = [numerics.path_key(RngStream(0), k) for k in range(20)]
        for algorithm in ALGORITHMS:
            calls.clear()
            run(family, replace(base, algorithm=algorithm, seed=0, max_iters=20, **overrides),
                profile=profile)
            assert [prefixes for prefixes, *_ in calls] == [keys[:7], keys[7:14], keys[14:]]
            assert [n for _, n, _ in calls] == [7, 7, 6]
            assert {n for *_, n in calls} == {sites[algorithm] + extra}

    @staticmethod
    def counted_draws(monkeypatch):
        """A list that gains an entry per keyed draw from here on: per key
        handed to keyed_uniforms, and per uniforms or standard_normals call.
        No kernel call may be handed the same key twice."""
        calls = []

        def keyed(prefixes, sites, _draw=numerics.keyed_uniforms):
            keys = [numerics.path_key(prefix) + suffix for prefix in prefixes
                    for suffixes, _ in sites.values() for suffix in suffixes]
            assert len(set(keys)) == len(keys), "a kernel call draws a key twice"
            calls.extend(1 for _ in keys)
            return _draw(prefixes, sites)

        def counted(*args, _draw, **kwargs):
            calls.append(1)
            return _draw(*args, **kwargs)

        modules = [importlib.import_module(f"metagrad.{m.name}")
                   for m in pkgutil.iter_modules(metagrad.__path__)]
        for draw in ("keyed_uniforms", "uniforms", "standard_normals"):
            original = getattr(numerics, draw)
            hook = keyed if draw == "keyed_uniforms" else partial(counted, _draw=original)
            for module in modules:
                if getattr(module, draw, None) is original:
                    monkeypatch.setattr(module, draw, hook)
        return calls

    def check_draws(self, monkeypatch, name, per_step, block=None, **overrides):
        """Keyed draws of 20-step runs at seed 0, in blocks of block
        iterates when block is given."""
        resolved, config_dir = load_config(str(CONFIGS / f"{name}.json"), argparse.Namespace())
        family, base, profile = prepare(resolved, config_dir)
        base = replace(base, **overrides)
        calls, lengths = self.counted_draws(monkeypatch), block_lengths(monkeypatch)
        for algorithm, expected in per_step.items():
            calls.clear()
            cfg = replace(base, algorithm=algorithm, seed=0, max_iters=20)
            if block is not None:
                monkeypatch.setattr(numerics, "BLOCK_ROWS", block * run_width(family, cfg))
            lengths.clear()
            rec = run(family, cfg, profile=profile)
            assert rec.steps_taken == 20
            assert len(calls) == 20 * expected, algorithm
            if block is not None:
                assert lengths == blocks_of(block, 21), algorithm


class TestOracleWork:
    """Oracle calls per run, counted rather than timed: exact FO-MAML reads
    its step off the outer stage and builds the Hessians once per block of
    iterates; exact MAML's step is grad F, so it builds them at each iterate."""

    @staticmethod
    def counted(monkeypatch, family, method):
        """The arguments of every call of family.method from here on."""
        calls, oracle = [], getattr(family, method)

        def counting(*args):
            calls.append(args)
            return oracle(*args)

        monkeypatch.setattr(family, method, counting)
        return calls

    @staticmethod
    def fig1():
        resolved, config_dir = load_config(str(CONFIGS / "fig1.json"), argparse.Namespace())
        return prepare(resolved, config_dir)

    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
    def test_exact_fomaml_builds_hessians_once_per_block(self, monkeypatch, block):
        family, base, profile = self.fig1()
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK_ROWS", block * family.n_tasks)
        calls = self.counted(monkeypatch, family, "hessians")
        rec = run(family, replace(base, algorithm=FOMAML, max_iters=25), profile=profile)
        assert rec.steps_taken == 25
        blocks = list(numerics.row_blocks(26, family.n_tasks))
        assert [len(W) for W, *_ in calls] == [r1 - r0 for r0, r1 in blocks]

    def test_exact_maml_builds_hessians_once_per_iterate(self, monkeypatch):
        family, base, profile = self.fig1()
        calls = self.counted(monkeypatch, family, "hessians")
        rec = run(family, replace(base, algorithm=MAML, max_iters=25), profile=profile)
        assert rec.steps_taken == 25
        assert len(calls) == 26 and all(W.shape == (family.dim,) for W, *_ in calls)

    @pytest.mark.parametrize("algorithm, per_step", [(MAML, 2), (FOMAML, 2), (HFMAML, 3)])
    def test_sampled_step_gradient_calls(self, monkeypatch, algorithm, per_step):
        # inner and outer, and HF-MAML's one call for both probe points; the
        # block's exact sweep adds one call for its outer stage
        resolved, config_dir = load_config(str(CONFIGS / "fig2.json"), argparse.Namespace())
        family, base, profile = prepare(resolved, config_dir)
        calls = self.counted(monkeypatch, family, "grads")
        rec = run(family, replace(base, algorithm=algorithm, max_iters=25), profile=profile)
        assert rec.steps_taken == 25
        width = max(family.n_tasks, base.batches.B)  # an iterate's rows in its sweep or slots
        blocks = len(list(numerics.row_blocks(26, width)))
        assert len(calls) == per_step * 25 + blocks


class TestStochasticRuns:
    def noisy_config(self, algorithm, seed=0, **kw):
        defaults = dict(
            algorithm=algorithm,
            alpha=0.1,
            stepsize=StepsizeRule(kind="constant", beta=0.05),
            batches=BatchSpec(B=4, D_in=2, D_o=2, D_h=2),
            sigma_tilde=0.5,
            max_iters=60,
            seed=seed,
        )
        defaults.update(kw)
        return OptimizerConfig(**defaults)

    def test_bitwise_determinism(self):
        family = random_quadratic_family(6, 3, RngStream(0))
        a = run(family, self.noisy_config(MAML, sigma_H=0.4))
        b = run(family, self.noisy_config(MAML, sigma_H=0.4))
        assert np.array_equal(a.grad_norm_F, b.grad_norm_F)
        assert np.array_equal(a.iterates[-1], b.iterates[-1])
        c = run(family, self.noisy_config(MAML, sigma_H=0.4, seed=1))
        assert not np.array_equal(a.iterates[-1], c.iterates[-1])

    def test_probe_variant_tracks_full_second_order_under_shared_noise(self):
        # sigma_H = 0 and paired streams: the finite-difference probe's
        # shared data noise cancels, so it draws none, and the probe
        # equals the exact Hessian-vector product on quadratics
        family = random_quadratic_family(5, 3, RngStream(7))
        base = self.noisy_config(MAML, max_iters=80)
        recs = run_comparison(family, base, algorithms=(MAML, HFMAML))
        gap = np.abs(recs[MAML].iterates - recs[HFMAML].iterates).max()
        assert gap <= 1e-10

    def test_comparison_matches_direct_runs(self):
        family = random_quadratic_family(4, 2, RngStream(5))
        base = self.noisy_config(MAML, sigma_H=0.3)
        recs = run_comparison(family, base)
        assert set(recs) == {MAML, FOMAML, HFMAML}
        direct = run(family, self.noisy_config(FOMAML, sigma_H=0.3))
        assert np.array_equal(recs[FOMAML].iterates[-1], direct.iterates[-1])
        assert np.array_equal(recs[FOMAML].grad_norm_F, direct.grad_norm_F)

    @pytest.mark.parametrize("kind", ["rank1mf", "quadratic"])
    def test_hfmaml_records_do_not_depend_on_D_h(self, kind):
        # the probe's shared batch noise cancels and is not drawn, so no
        # HF-MAML draw reads the Hessian-side budget
        if kind == "rank1mf":
            family = rank1_mf_family(20, 5, RngStream(14))
        else:
            family = random_quadratic_family(12, 4, RngStream(14))
        recs = [run(family, self.noisy_config(HFMAML, sigma_H=0.5, max_iters=200,
                                              batches=BatchSpec(B=10, D_h=D_h)))
                for D_h in (1, 4, 400)]
        assert all(rec.steps_taken == 200 for rec in recs)
        for rec in recs[1:]:
            assert np.array_equal(rec.iterates, recs[0].iterates)
            assert rec.to_csv() == recs[0].to_csv()

    def test_noise_floor_above_exact_run(self):
        # the noisy run stalls at a strictly positive floor while the
        # exact run drives the gradient norm to zero
        family = random_quadratic_family(6, 3, RngStream(13))
        noisy = run(family, self.noisy_config(MAML, max_iters=300))
        beta = safe_constant_beta(family, 0.1)
        exact = run(family, exact_config(MAML, beta, max_iters=300))
        assert exact.floor <= 1e-12
        assert noisy.floor > 100.0 * exact.floor


class TestRecordAndStops:
    def test_csv_round_trip_is_exact(self):
        family = random_quadratic_family(4, 3, RngStream(2))
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.1,
            stepsize=StepsizeRule(kind="constant", beta=0.05),
            batches=BatchSpec(B=3, D_in=2, D_o=2, D_h=2),
            sigma_tilde=0.7,
            max_iters=25,
        )
        rec = run(family, cfg)
        text = rec.to_csv()
        assert text.splitlines()[0] == CSV_HEADER
        cols = parse_csv(text)
        assert np.array_equal(cols["iter"], np.arange(rec.steps_taken + 1))
        assert np.array_equal(cols["grad_norm_F"], rec.grad_norm_F)
        assert np.array_equal(cols["loss_F"], rec.loss_F)
        assert np.array_equal(cols["beta"], rec.beta, equal_nan=True)
        assert np.array_equal(cols["dist_wstar"], rec.dist_wstar)
        assert np.array_equal(cols["dist_wfo"], rec.dist_wfo)

    def test_distance_columns_nan_without_closed_form(self):
        family = rank1_mf_family(3, 3, RngStream(1))
        cfg = OptimizerConfig(
            algorithm=FOMAML,
            alpha=0.05,
            stepsize=StepsizeRule(kind="constant", beta=0.02),
            full_task_batch=True,
            max_iters=5,
            w0=0.1 * np.ones(3),
        )
        rec = run(family, cfg)
        assert np.all(np.isnan(rec.dist_wstar))
        assert np.all(np.isnan(rec.dist_wfo))
        assert np.all(np.isfinite(rec.grad_norm_F))

    def test_distance_columns_nan_where_the_fixed_points_are_ill_conditioned(self):
        # at alpha = 1 this quadratic family's fixed-point system is not
        # positive definite, so it has no w*: the run goes on and logs no distance
        family = random_quadratic_family(4, 3, RngStream(5))
        cfg = OptimizerConfig(
            algorithm=FOMAML,
            alpha=1.0,
            stepsize=StepsizeRule(kind="constant", beta=0.01),
            full_task_batch=True,
            max_iters=20,
        )
        rec = run(family, cfg)
        assert rec.stop_reason == "max_iters" and rec.steps_taken == 20
        assert np.all(np.isnan(rec.dist_wstar))
        assert np.all(np.isnan(rec.dist_wfo))

    def test_beta_column_semantics(self):
        family = one_d_example_family()
        rec = run(family, exact_config(MAML, 0.3, max_iters=10))
        assert np.all(rec.beta[:-1] == 0.3)
        assert np.isnan(rec.beta[-1])
        # row k's beta moves w_k to w_{k+1}
        rec2 = run(family, exact_config(MAML, 0.3, max_iters=1))
        g0 = exact_grad_F(family, rec2.iterates[0], 0.1)
        assert np.allclose(rec2.iterates[1], rec2.iterates[0] - 0.3 * g0, atol=1e-15)

    def test_target_stop_and_counters(self):
        family = random_quadratic_family(5, 3, RngStream(6))
        beta = safe_constant_beta(family, 0.1)
        rec = run(family, exact_config(MAML, beta, target_grad_norm=1e-6, max_iters=500))
        assert rec.stop_reason == "target"
        assert rec.final_grad_norm <= 1e-6
        assert np.all(rec.grad_norm_F[:-1] > 1e-6)  # first hit is the last row
        assert rec.grad_norm_F[rec.steps_taken - 1] > 1e-6
        full = run(family, exact_config(MAML, beta, max_iters=7))
        assert full.stop_reason == "max_iters"
        assert full.steps_taken == 7
        assert len(full.iterates) == 8

    def test_trajectory_always_kept(self):
        family = random_quadratic_family(5, 3, RngStream(6))
        beta = safe_constant_beta(family, 0.1)
        for cfg in (exact_config(MAML, beta, max_iters=7),
                    exact_config(MAML, beta, target_grad_norm=1e-6, max_iters=500)):
            rec = run(family, cfg)
            assert rec.iterates.shape == (rec.steps_taken + 1, family.dim)
            assert np.array_equal(rec.iterates[0], np.zeros(family.dim))
            # the last row is the point the final exact gradient was taken at
            grad = np.linalg.norm(exact_grad_F(family, rec.iterates[-1], 0.1))
            assert rec.final_grad_norm == grad
        assert rec.stop_reason == "target" and rec.steps_taken < 500

    def test_summary_fields(self):
        family = one_d_example_family()
        rec = run(family, exact_config(MAML, 0.3, max_iters=20, seed=42))
        s = rec.summary()
        assert s["algorithm"] == MAML
        assert s["seed"] == 42
        assert s["floor"] == rec.floor
        assert s["best_iter"] == int(np.argmin(rec.grad_norm_F))
        assert s["delta_estimate"] >= 0.0


class TestBlockInstrumentation:
    """run() takes a block of steps, then logs the block's iterates from one
    stacked exact sweep.  Rows, stops and failures must read as the loop that
    logs each iterate before stepping from it."""

    @staticmethod
    def unstable_family():
        # at beta = 0.5 the step halves the eigenvalue-1 coordinate and
        # scales the eigenvalue-10 one by about -4: ||grad F|| falls to its
        # least at row 3, then rises until iteration 6 leaves the trust region
        A = np.diag([1.0, 10.0])
        return TaskFamily([QuadraticTask(A, np.zeros(2)), QuadraticTask(A, np.array([0.01, 0.0]))])

    @staticmethod
    def unstable_config(algorithm, **kw):
        return exact_config(algorithm, 0.5, alpha=0.01, w0=np.array([1.0, 2e-4]),
                            trust_radius=0.1, max_iters=200, **kw)

    @staticmethod
    def looped(family, cfg, profile):
        """Iterates of the loop that checks each new iterate as it steps,
        and the type and message of the failure that ends it (None, None
        at max_iters)."""
        w0 = cfg.start_point(family.dim)
        trail, oracle = [w0], StochasticOracle(0.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(cfg.max_iters):
                w = trail[-1]
                if cfg.algorithm == MAML:
                    step = exact_grad_F(family, w, cfg.alpha)
                elif cfg.algorithm == FOMAML:
                    step = family.weights @ outer_stage(family, w, cfg.alpha)[1]
                else:
                    draw = step_draw(family, cfg, oracle, RngStream(cfg.seed).child(k))
                    step = _slot_direction(family, cfg, w, profile.rho, draw)
                w = w - cfg.stepsize.beta * step
                dist = np.linalg.norm(w - w0)
                if not np.all(np.isfinite(w)):
                    return trail, NumericalFailure, f"non-finite iterate at iteration {k + 1}"
                if dist > 10.0 * cfg.trust_radius:
                    return trail, DivergenceDetected, (
                        f"iterate left 10x trust region at iteration {k + 1} "
                        f"(||w - w0|| = {dist:.3g}, radius = {cfg.trust_radius:g})")
                trail.append(w)
        return trail, None, None

    @pytest.mark.parametrize("full_task_batch", [False, True], ids=["sampled", "exact-full-batch"])
    @pytest.mark.parametrize("algorithm", [MAML, FOMAML, HFMAML])
    def test_rows_are_per_iterate_sweeps_across_blocks(self, monkeypatch, algorithm,
                                                       full_task_batch):
        # the distance columns are taken once from the kept iterates: each row
        # still reads as that iterate's own distance, across block edges
        monkeypatch.setattr(numerics, "BLOCK_ROWS", 7 * 20)  # blocks of 7 iterates
        family = random_quadratic_family(20, 4, RngStream(8))
        analysis = analyze_quadratic(family, 0.1)
        noise = ({"full_task_batch": True} if full_task_batch
                 else {"sigma_tilde": 0.5, "sigma_H": 0.5 if algorithm == MAML else 0.0})
        cfg = OptimizerConfig(algorithm=algorithm, alpha=0.1, max_iters=30,
                              stepsize=StepsizeRule(kind="constant", beta=0.2),
                              batches=BatchSpec(B=4, D_in=2, D_o=2, D_h=2), **noise)
        rec = run(family, cfg)
        assert rec.steps_taken == 30
        for k, w in enumerate(rec.iterates):
            assert rec.grad_norm_F[k] == np.linalg.norm(exact_grad_F(family, w, 0.1))
            assert rec.loss_F[k] == value_F(family, w, 0.1)
            assert rec.dist_wstar[k] == np.linalg.norm(w - analysis.w_star)
            assert rec.dist_wfo[k] == np.linalg.norm(w - analysis.w_fo)

    @pytest.mark.parametrize("algorithm", [MAML, FOMAML, HFMAML])
    @pytest.mark.parametrize("failure", ["diverged", "non-finite"])
    def test_mid_block_failure_raises_the_loop_message(self, algorithm, failure):
        if failure == "diverged":
            family, cfg = self.unstable_family(), self.unstable_config(algorithm)
        else:
            # each step scales w by about -1.5e156: 1e-160, 1e-4, 2e152 (whose
            # ||w - w0|| is still finite), then past the float range
            family = TaskFamily([QuadraticTask(np.array([[a]]), np.zeros(1)) for a in (1.0, 2.0)])
            cfg = exact_config(algorithm, 1e156, alpha=0.01, w0=np.array([1e-160]),
                               trust_radius=1e300, max_iters=200)
        profile = SmoothnessProfile(L=3.0, rho=0.0, sigma=1.0)
        trail, error, message = self.looped(family, cfg, profile)
        assert error is {"diverged": DivergenceDetected, "non-finite": NumericalFailure}[failure]
        assert 2 < len(trail) < numerics.BLOCK_ROWS // family.n_tasks  # the failure is mid-block
        with pytest.raises(error) as caught:
            run(family, cfg, profile=profile)
        assert str(caught.value) == message

    def test_a_run_with_a_target_discards_at_most_as_many_steps_as_it_keeps(self, monkeypatch):
        # two tasks make blocks of 512 iterates; a run that can stop at a
        # target grows its blocks from one iterate instead
        family = TaskFamily([QuadraticTask(np.eye(2), np.array([1.0, 0.0])),
                             QuadraticTask(2.0 * np.eye(2), np.array([-1.0, 0.5]))])
        cfg = OptimizerConfig(algorithm=HFMAML, alpha=0.1, max_iters=2000, sigma_tilde=0.1,
                              stepsize=StepsizeRule(kind="constant", beta=0.3),
                              batches=BatchSpec(B=2, D_in=2, D_o=2, D_h=2))
        profile = SmoothnessProfile(L=2.0, rho=0.0, sigma=1.0)
        steps, step = [], optimizer._slot_direction
        monkeypatch.setattr(optimizer, "_slot_direction", lambda *a: steps.append(1) or step(*a))
        full = run(family, cfg, profile=profile)
        assert len(steps) == 2000
        steps.clear()
        rec = run(family, replace(cfg, target_grad_norm=0.05), profile=profile)
        assert rec.stop_reason == "target" and 10 < rec.steps_taken < 100
        assert np.array_equal(rec.iterates, full.iterates[:rec.steps_taken + 1])
        assert len(steps) <= 2 * rec.steps_taken + 1

    @pytest.mark.parametrize("algorithm", [MAML, FOMAML, HFMAML])
    def test_target_before_a_later_divergence_in_the_block_stops_at_target(self, algorithm):
        family = self.unstable_family()
        cfg = self.unstable_config(algorithm)
        profile = SmoothnessProfile(L=3.0, rho=0.0, sigma=1.0)
        trail, error, _ = self.looped(family, cfg, profile)
        norms = [np.linalg.norm(exact_grad_F(family, w, cfg.alpha)) for w in trail]
        stop = int(np.argmin(norms))
        assert error is DivergenceDetected and 0 < stop < len(trail) - 2
        # the step that fails leaves row len(trail) - 1, in the target's block
        blocks = numerics.row_blocks(len(trail), family.n_tasks, grow=True)
        assert any(k0 <= stop < len(trail) - 1 < k1 for k0, k1 in blocks)
        rec = run(family, replace(cfg, target_grad_norm=norms[stop]), profile=profile)
        assert rec.stop_reason == "target" and rec.steps_taken == stop
        assert np.array_equal(rec.iterates, np.array(trail[:stop + 1]))
        assert list(rec.grad_norm_F) == norms[:stop + 1]
        assert np.isnan(rec.beta[stop]) and np.all(rec.beta[:stop] == 0.5)


class TestGuards:
    def test_divergence_detected_on_unstable_step(self):
        family = one_d_example_family()
        with pytest.raises(DivergenceDetected):
            run(family, exact_config(MAML, 50.0, max_iters=200, trust_radius=1.0))

    def test_divergence_past_float_range_raises_without_warnings(self):
        # one step lands finite near 1e299, where ||w - w0|| overflows to inf
        family = one_d_example_family()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceDetected, match=r"\|\|w - w0\|\| = inf"):
                run(family, exact_config(MAML, 1e300, max_iters=3))

    def test_numerical_failure_on_overflow(self):
        family = one_d_example_family()
        cfg = exact_config(MAML, 1e306, max_iters=3, w0=np.array([1e4]))
        with pytest.raises(NumericalFailure):
            run(family, cfg)

    def test_adaptive_rejects_undersized_stepsize_batches(self):
        family = random_quadratic_family(4, 2, RngStream(0))
        profile = SmoothnessProfile(L=2.0, rho=3.0, sigma=4.0)
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.5,
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20),
        )
        with pytest.raises(InvalidBatchConfig, match="B_prime"):
            run(family, cfg, profile=profile)

    def test_adaptive_rejects_small_task_batch(self):
        family = random_quadratic_family(4, 2, RngStream(0))
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.01,
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=10),
        )
        with pytest.raises(InvalidBatchConfig, match="B=10 < 20"):
            run(family, cfg)

    def test_adaptive_rejects_undersized_probe_budget(self):
        profile = SmoothnessProfile(L=2.0, rho=2.0, sigma=0.0, sigma_tilde=1.0)
        cfg = OptimizerConfig(
            algorithm=HFMAML,
            alpha=0.5,
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20, D_beta=1),
            sigma_tilde=1.0,
        )
        with pytest.raises(InvalidBatchConfig, match=r"D_h=1 < ceil\(36"):
            validate_config(cfg, profile.with_noise(1.0, 0.0))

    def test_only_maml_sizes_its_hessian_batch_by_sigma_H(self):
        # FO-MAML drops the Hessian factor and HF-MAML draws no Hessian, so
        # the noisy-Hessian rule ceil(2 alpha^2 sigma_H^2) = 8 binds MAML alone
        profile = SmoothnessProfile(L=0.2, rho=0.0, sigma=0.0).with_noise(0.0, 4.0)
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.5,
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20, D_h=1),
            sigma_H=4.0,
        )
        with pytest.raises(InvalidBatchConfig,
                           match=r"^D_h=1 < ceil\(2\*alpha\^2\*sigma_H\^2\)=8$"):
            validate_config(cfg, profile)
        for algorithm in (FOMAML, HFMAML):
            validate_config(replace(cfg, algorithm=algorithm), profile)

    def test_comparison_checks_every_algorithm_before_the_first_run(self, monkeypatch):
        # sigma_H = 0 leaves MAML and FO-MAML needing D_h = 1; only HF-MAML's
        # ceil(36 (alpha rho sigma_tilde)^2) = 46 probe gradients are short
        family = rank1_mf_family(4, 2, RngStream(0))
        runs, setups = [], []
        real_run, real_smoothness = optimizer.run, optimizer.local_smoothness
        monkeypatch.setattr(optimizer, "run",
                            lambda *a, **k: runs.append(a[1].algorithm) or real_run(*a, **k))
        monkeypatch.setattr(optimizer, "local_smoothness",
                            lambda *a: setups.append(a) or real_smoothness(*a))
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.1,  # alpha * L = 0.77, past every cap
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20),
            sigma_tilde=1.0,
            w0=np.array([0.3, -0.2]),
            trust_radius=1.0,
            max_iters=2,
        )
        with pytest.raises(InvalidBatchConfig, match=r"D_h=1 < ceil\(36.*=46"):
            run_comparison(family, cfg)
        assert runs == [] and len(setups) == 1
        # with the budget met: one profile, each algorithm run once and
        # warned once past its alpha * L cap
        with pytest.warns(UserWarning) as caught:
            run_comparison(family, replace(cfg, batches=BatchSpec(B=20, D_h=46)))
        assert runs == [MAML, FOMAML, HFMAML] and len(setups) == 2
        assert sorted(str(w.message).split()[5] for w in caught) == [FOMAML, HFMAML, MAML]

    def test_adaptive_warns_past_stepsize_cap(self):
        family = one_d_example_family()
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.2,  # alpha * L = 0.4 > 1/6
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20),
            max_iters=2,
        )
        with pytest.warns(UserWarning, match="cap"):
            run(family, cfg)

    def test_w0_dimension_mismatch(self):
        family = one_d_example_family()
        with pytest.raises(ValueError, match="shape"):
            run(family, exact_config(MAML, 0.1, w0=np.array([0.0, 0.0])))

    def test_config_field_validation(self):
        rule = StepsizeRule(kind="constant", beta=0.1)
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="newton", alpha=0.1, stepsize=rule)
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm=MAML, alpha=-0.1, stepsize=rule)
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm=MAML, alpha=0.1, stepsize=rule, max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm=MAML, alpha=0.1, stepsize=rule, trust_radius=0.0)
        for noise in ({"sigma_tilde": -0.5}, {"sigma_H": -0.5}):
            with pytest.raises(ValueError, match="noise levels must be nonnegative"):
                OptimizerConfig(algorithm=MAML, alpha=0.1, stepsize=rule, **noise)

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", True), ("max_iters", 0), ("max_iters", 3.0),
        ("seed", 1.5), ("seed", 2**70), ("seed", -2**63 - 1), ("seed", False),
    ])
    def test_integer_fields_refused_by_name(self, field, value):
        rule = StepsizeRule(kind="constant", beta=0.1)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            OptimizerConfig(algorithm=MAML, alpha=0.1, stepsize=rule, **{field: value})

    def test_numpy_integer_fields_stored_as_ints(self):
        rule = StepsizeRule(kind="constant", beta=0.1)
        cfg = OptimizerConfig(MAML, 0.1, rule, max_iters=np.int32(3), seed=np.int64(-2**63))
        assert (cfg.max_iters, cfg.seed) == (3, -2**63)
        assert type(cfg.max_iters) is int and type(cfg.seed) is int
        assert run(one_d_example_family(), cfg).steps_taken == 3

    def test_integer_reals_stored_as_floats(self):
        # a config's "alpha": 0 is reported in the summary as 0.0, as 0.0 is
        rule = StepsizeRule(kind="constant", beta=0.1)
        cfg = OptimizerConfig(MAML, 0, rule, target_grad_norm=0, trust_radius=2,
                              sigma_tilde=1, sigma_H=0)
        values = [cfg.alpha, cfg.target_grad_norm, cfg.trust_radius, cfg.sigma_tilde, cfg.sigma_H]
        assert values == [0.0, 0.0, 2.0, 1.0, 0.0]
        assert all(type(v) is float for v in values)


class TestAdaptiveStepsizes:
    def test_deterministic_adaptive_beta_on_quadratics(self):
        # rho = 0 collapses the adaptive rule to fraction / (4L)
        family = one_d_example_family()
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.05,
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20),
            max_iters=10,
            full_task_batch=True,
        )
        rec = run(family, cfg)
        expected = ADAPTIVE_FRACTIONS[MAML] / (4.0 * 2.0)  # L = max eig = 2
        assert np.allclose(rec.beta[:-1], expected, rtol=1e-12)

    def test_adaptive_converges_on_quadratic(self):
        family = random_quadratic_family(5, 3, RngStream(8))
        cfg = OptimizerConfig(
            algorithm=MAML,
            alpha=0.05,
            stepsize=StepsizeRule(kind="adaptive"),
            batches=BatchSpec(B=20),
            max_iters=3000,
            target_grad_norm=1e-9,
            full_task_batch=True,
        )
        rec = run(family, cfg)
        assert rec.stop_reason == "target"
        assert rec.dist_wstar[-1] <= 1e-7
