"""Entry points the benchmark starts in a fresh interpreter.

    child.py setup <config.json>
        With numpy and scipy.linalg loaded, import metagrad, load the
        config, build the family and compute the smoothness profile:
        everything a run of the benchmark's workloads does before
        iteration 0.  Prints its seconds and the mean seconds of the
        reference_kernel calls made just before and after it, as
        {"setup_s": ..., "reference_s": ...}.

    child.py trace <spans.npz> <metagrad cli arguments...>
        Install the span tracer, run the metagrad command line, write the
        spans at exit and exit with the command's own code.
"""

import statistics
import sys
import time

import numpy as np
import scipy.linalg  # noqa: F401  (loaded before the set-up clock starts)

REFERENCE_WINDOW_S = 0.15


def build_inputs(config_path: str):
    """Resolved config, family, w0 and smoothness profile, built as the program does."""
    import argparse

    from metagrad.cli import build_family, load_config
    from metagrad.tasks import local_smoothness

    resolved, config_dir = load_config(config_path, argparse.Namespace())
    family = build_family(resolved["family"], config_dir)
    w0 = np.zeros(family.dim) if resolved["w0"] is None else np.asarray(resolved["w0"], float)
    profile = local_smoothness(family, w0, float(resolved["trust_radius"]))
    return resolved, family, w0, profile


def reference_inputs() -> tuple:
    rng = np.random.default_rng(0)
    m = rng.normal(size=(20, 5, 5))
    return m + m.transpose(0, 2, 1), rng.normal(size=5), np.full(20, 0.05)


def reference_kernel(m, w, p):
    """A fixed numpy loop shaped like one exact rank-1 meta-gradient sweep.

    It shares no code with metagrad, so its time tracks only how fast the
    host runs this kind of work at the moment; see run.StepTimer.
    """
    for _ in range(10):
        g = (w @ w) * w - m @ w
        x = w - 0.01 * g
        go = np.sum(x * x, axis=1, keepdims=True) * x - np.einsum("nij,nj->ni", m, x)
        h = ((w @ w) * np.eye(5) + 2.0 * np.outer(w, w))[None] - m
        d = p @ (go - 0.01 * np.einsum("nij,nj->ni", h, go))
        w = w - 1e-3 * d / (1.0 + float(np.linalg.norm(d)))
    return w


def reference_calls(inputs: tuple, seconds: float) -> list[float]:
    """Seconds of each reference_kernel call made for about `seconds`; at least one."""
    times = []
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        reference_kernel(*inputs)
        times.append(time.perf_counter() - t0)
    return times


def setup(config_path: str) -> int:
    inputs = reference_inputs()
    reference_kernel(*inputs)  # warms numpy's first-call paths
    before = reference_calls(inputs, REFERENCE_WINDOW_S)
    t0 = time.perf_counter()
    import metagrad.cli  # noqa: F401  (the modules a run imports)

    build_inputs(config_path)
    t1 = time.perf_counter()
    after = reference_calls(inputs, REFERENCE_WINDOW_S)
    print('{"setup_s": %.9f, "reference_s": %.9f}'
          % (t1 - t0, statistics.mean(before + after)))
    return 0


def trace(spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from metagrad import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    if len(sys.argv) >= 3 and sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    sys.exit("usage: child.py setup <config> | child.py trace <spans.npz> <cli args>")
