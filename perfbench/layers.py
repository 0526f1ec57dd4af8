"""Per-layer metrics: counts and self times from the trace, plus timings of
single layer calls on the workload's own inputs.

Each timing calls one public function of one module repeatedly with
fresh RNG keys where it draws, and reports the median of several timed
batches.  The quadratic-only layers (spectral_norm, analyze_quadratic)
are timed on every workload on a random quadratic family (n=50, d=10)
generated from the workload seed.
"""

from __future__ import annotations

import statistics
import time

VERIFICATION = {
    "bias": "audit_bias",
    "second_moment": "audit_second_moment",
    "grad_gap": "audit_grad_gap_F_hat",
    "hvp_probe": "audit_hvp_probe_error",
    "smoothness": "audit_smoothness_ratio",
    "stepsize_moments": "audit_stepsize_moments",
    "kshot": "audit_kshot_floor",
}


def layer_metrics(trace: dict) -> dict:
    """Counts and self times read off one traced invocation."""
    fns = trace["functions"]

    def calls(name):
        return (fns.get(name, {}).get("calls", 0), "count")

    def module_self(module):
        return sum(v["self_s"] for k, v in fns.items() if k.startswith(module + "."))

    m = {}
    for algo in ("maml", "fomaml", "hfmaml"):
        m[f"numerics.keyed_draws_per_iter.{algo}"] = (
            trace["draws_per_iter"].get(algo, 0.0), "count")
    for name in ("noisy_grad", "noisy_hess", "sample_task_batch"):
        m[f"stochastic.{name}.calls"] = calls(f"stochastic.{name}")
    m["stochastic.self_s"] = (module_self("stochastic"), "s")
    m["meta_gradient.direction.calls"] = calls("meta_gradient.direction")
    m["meta_gradient.self_s"] = (module_self("meta_gradient"), "s")
    m["stepsize.beta_tilde.calls"] = calls("stepsize.beta_tilde")
    m["optimizer.loop_self_s"] = (fns.get("optimizer.run", {}).get("self_s", 0.0), "s")
    csv = fns.get("optimizer.RunRecord.to_csv")
    m["optimizer.to_csv_ms"] = (1e3 * csv["total_s"] / csv["calls"] if csv else 0.0, "ms")
    for short, fn in VERIFICATION.items():
        m[f"verification.{short}_s"] = (
            fns.get(f"verification.{fn}", {}).get("total_s", 0.0), "s")
    m["cli.self_s"] = (module_self("cli"), "s")
    return m


def per_call(fn, batches: int = 5, batch_s: float = 0.02) -> float:
    """Median seconds per call of fn(i) over timed batches of fresh i.

    One untimed call warms caches and sizes the batches; a call slower
    than batch_s is timed alone.
    """
    counter = iter(range(10**9))
    t0 = time.perf_counter()
    fn(next(counter))
    first = time.perf_counter() - t0
    size = max(1, int(batch_s / max(first, 1e-7)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(size):
            fn(next(counter))
        samples.append((time.perf_counter() - t0) / size)
    return statistics.median(samples)


def spectral_norm_timing(matrices) -> tuple[float, int]:
    """Median seconds per spectral_norm call, and how many matrices raise.

    spectral_norm raises IllConditioned on some of these matrices
    (README.md, defect c).  They are counted, and the time is taken on
    the others.
    """
    from metagrad.errors import IllConditioned
    from metagrad.numerics import spectral_norm

    converging = []
    for m in matrices:
        try:
            spectral_norm(m)
            converging.append(m)
        except IllConditioned:
            pass
    seconds = per_call(lambda i: spectral_norm(converging[i % len(converging)]))
    return seconds, len(matrices) - len(converging)


def microbenchmarks(seed, resolved, family, w0, profile) -> dict:
    from metagrad.cli import generate_family
    from metagrad.closed_form import analyze_quadratic
    from metagrad.meta_gradient import direction, exact_grad_F, mc_grad_F_hat_draws, value_F
    from metagrad.numerics import RngStream, standard_normals, uniforms
    from metagrad.stepsize import beta_tilde, sample_beta_tilde
    from metagrad.stochastic import BatchSpec, StochasticOracle
    from metagrad.tasks import local_smoothness

    def key(*labels):
        return RngStream(seed, ("perfbench",) + labels)

    alpha = float(resolved["alpha"])
    trust = float(resolved["trust_radius"])
    noise = resolved["noise"]
    profile = profile.with_noise(float(noise["sigma_tilde"]), float(noise["sigma_H"]))
    oracle = StochasticOracle(profile.sigma_tilde, profile.sigma_H)
    batches = BatchSpec(**{k: int(v) for k, v in resolved["batches"].items()})
    tasks = family.tasks
    quad_family = generate_family(
        {"kind": "quadratic", "n": 50, "dim": 10, "similarity": 1.0, "seed": seed})

    m = {}
    m["numerics.generator_us"] = (1e6 * per_call(lambda i: uniforms(key("gen", i), 1)), "us")
    m["numerics.normals_small_us"] = (
        1e6 * per_call(lambda i: standard_normals(key("small", i), 5)), "us")
    m["numerics.normals_bulk_ns"] = (
        1e9 / 10**6 * per_call(lambda i: standard_normals(key("bulk", i), 10**6), 3, 0.0), "ns")
    seconds, raised = spectral_norm_timing([t.A for t in quad_family.tasks])
    m["numerics.spectral_norm_us"] = (1e6 * seconds, "us")
    m["numerics.spectral_norm.ill_conditioned"] = (raised, "count")
    for algo in ("maml", "fomaml", "hfmaml"):
        m[f"meta_gradient.{algo}_direction_us"] = (1e6 * per_call(
            lambda i: direction(algo, tasks[i % len(tasks)], w0, alpha, profile.rho,
                                oracle, batches, key(algo, i))), "us")
    m["meta_gradient.exact_grad_F_us"] = (
        1e6 * per_call(lambda i: exact_grad_F(family, w0, alpha)), "us")
    m["meta_gradient.value_F_us"] = (1e6 * per_call(lambda i: value_F(family, w0, alpha)), "us")
    m["meta_gradient.mc_grad_F_hat_draws_ms"] = (1e3 * per_call(
        lambda i: mc_grad_F_hat_draws(family, w0, alpha, 4, 2000, oracle, key("mc", i)),
        3, 0.0), "ms")
    m["tasks.local_smoothness_ms"] = (
        1e3 * per_call(lambda i: local_smoothness(family, w0, trust), 3, 0.0), "ms")
    m["stepsize.beta_tilde_us"] = (1e6 * per_call(
        lambda i: beta_tilde(family, profile, w0, alpha, batches.B_prime, batches.D_beta,
                             key("beta", i))), "us")
    m["stepsize.sample_beta_tilde_ms"] = (1e3 * per_call(
        lambda i: sample_beta_tilde(family, profile, w0, alpha, 60, 60, 10**4,
                                    key("sample_beta", i)), 3, 0.0), "ms")
    m["closed_form.analyze_quadratic_ms"] = (
        1e3 * per_call(lambda i: analyze_quadratic(quad_family, 0.05), 3, 0.0), "ms")
    return m
