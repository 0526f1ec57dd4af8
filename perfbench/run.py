#!/usr/bin/env python3
"""The metagrad benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One `metagrad` process runs at a
time; the only extra threads are the program's own seed pool.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones; with `--trace 1` they are the per-layer ones.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from child import build_inputs, reference_calls, reference_inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
FINGERPRINT = HERE / "fingerprint.json"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
ROUND_S = 0.5
# setup_s is reported at the speed of a host on which one reference_kernel
# call takes this long; see Harness.end_to_end.
REFERENCE_NOMINAL_S = 300e-6
# Interpreter start-up and exit, outside the measured loop of a run.
STARTUP_S = 1.0
INVOCATION_TIMEOUT_S = 150.0
ALGORITHMS = ("maml", "fomaml", "hfmaml")
# fig2's keyed draws per iteration at the default seed (maml, fomaml,
# hfmaml); fig1 draws none.  The traced run checks these counts.
SEED_DRAWS_PER_ITER = {"fig1-exact": (0, 0, 0), "fig2-sampled": (31, 21, 41)}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # metagrad subcommand
    chunk_iters: int  # iterations per timed optimizer.run chunk (2-25 ms)

    def config(self, seed: int, workdir: Path) -> Path:
        """The config file the workload runs at this seed."""
        if self.name in ("fig1-exact", "fig2-sampled"):
            return CONFIGS / f"{self.name[:4]}.json"
        else:  # audit-mf
            cfg = json.loads((CONFIGS / "fig2.json").read_text())
            cfg["family"]["generate"]["seed"] += seed
            cfg.update({
                "algorithms": ["maml"],
                "stepsize": {"kind": "adaptive"},
                "batches": {"B": 20, "D_in": 4, "D_o": 4, "D_h": 4,
                            "B_prime": 20, "D_beta": 20},
                "noise": {"sigma_tilde": 0.5, "sigma_H": 0.5},
                "max_iters": 60,  # short kshot runs: the Monte Carlo audits dominate
                "seeds": [seed],
            })
        path = workdir / f"{self.name}_seed{seed}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        return path

    def cli_args(self, seed: int, config: Path, out: Path) -> list[str]:
        args = [self.command, "--config", str(config), "--out", str(out), "--quiet"]
        if self.name in ("fig1-exact", "fig2-sampled"):
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1-exact", "compare", 25),
        Workload("fig2-sampled", "compare", 10),
        Workload("audit-mf", "audit", 10),
    )
}


# ------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def invoke(argv: list[str], workdir: Path, timeout: float) -> Invocation:
    """Run argv to completion; resource use comes from wait4 on the child."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


# ------------------------------------------------------------ correctness


def output_hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def check_outputs(workload: Workload, seed: int, config: Path, out: Path,
                  inv: Invocation) -> list[str]:
    """Reasons the invocation failed; empty when it is correct."""
    problems = []
    if inv.code != 0:
        problems.append(f"exit code {inv.code}")
    if "Traceback" in inv.stderr:
        problems.append("traceback on stderr")
    algorithms = json.loads(config.read_text()).get("algorithms", ALGORITHMS)
    if workload.command == "audit":
        expected = [f"audit_seed{seed}.json"]
    else:
        expected = [f"compare_{a}_seed{seed}.csv" for a in algorithms]
        expected.append(f"compare_summary_seed{seed}.json")
    for name in expected:
        for path in (out / name, out / f"{name}.config.json"):
            if not path.is_file():
                problems.append(f"missing output {path.name}")
    if problems:
        return problems
    if workload.command == "audit":
        report = json.loads((out / f"audit_seed{seed}.json").read_text())
        failing = [a["name"] for a in report["audits"] if a["passed"] is not True]
        if failing or not report["audits"] or report["all_passed"] is not True:
            problems.append(f"audit checks failed: {failing}")
        return problems
    ratios = json.loads((out / f"compare_summary_seed{seed}.json").read_text())["floor_ratios"]
    if workload.name == "fig1-exact":
        ratio = ratios.get("fomaml_over_worst_other")
        if ratio is None or not ratio >= 10.0:
            problems.append(f"fig1 FO/others {ratio} < 10")
    if workload.name == "fig2-sampled":
        spread = ratios.get("max_over_min")
        if spread is None or not spread <= 2.0:
            problems.append(f"fig2 spread {spread} > 2")
    return problems


def load_fingerprint() -> dict:
    if not FINGERPRINT.is_file():
        return {}
    return json.loads(FINGERPRINT.read_text()).get("workloads", {})


# ------------------------------------------------------------ the harness


class StepTimer:
    """Cost of a step of optimizer.run with the profile passed in.

    Each algorithm runs the workload's first iteration alone and its
    first `chunk_iters` iterations as a chunk.  Their difference over the
    extra steps is the time of a step; the work run() does once per call
    (validation, allocation, the last instrumentation row) cancels out.

    Co-tenants on a shared host slow this kind of machine by up to 1.7x,
    in phases that alternate within milliseconds and whose share drifts
    over seconds to minutes, so one long timing measures the host as much
    as the code.  Each pair of runs is therefore bracketed by calls of
    `reference_kernel` lasting about as long as the pair, which meet the
    same share of slow time, and a sample is the step time in units of
    their mean.  `step_cost` is the median sample over the run's rounds,
    which are spread over the run.
    """

    def __init__(self, harness: "Harness"):
        from dataclasses import replace

        from metagrad.cli import build_optimizer_config
        from metagrad.optimizer import run

        self.harness = harness
        self.run = run
        resolved, self.family, _, self.profile = harness.inputs(harness.seed)
        self.reference = reference_inputs()
        self.fastest_reference = float("inf")
        self.configs = {}  # algorithm -> (one-iteration config, chunk config)
        self.fastest = {}  # (algorithm, iterations) -> (seconds, steps taken)
        self.samples = {}  # algorithm -> step times in reference calls
        self.pair_s = {}  # algorithm -> seconds of its last pair of runs
        for algo in ALGORITHMS:
            cfg = build_optimizer_config(resolved, algo, harness.seed)
            iters = (1, min(cfg.max_iters, harness.workload.chunk_iters))
            self.configs[algo] = tuple(replace(cfg, max_iters=n) for n in iters)
            self.fastest.update({(algo, n): (float("inf"), 0) for n in iters})
            self.samples[algo], self.pair_s[algo] = [], 0.0
        harness.attempted += len(ALGORITHMS)
        self.round(0.0)  # one pass warms caches
        for samples in self.samples.values():
            samples.clear()

    def references(self, seconds: float) -> list[float]:
        times = reference_calls(self.reference, seconds)
        self.fastest_reference = min(self.fastest_reference, *times)
        return times

    def timed(self, algo: str, cfg) -> tuple[float, int]:
        t0 = time.perf_counter()
        rec = self.run(self.family, cfg, profile=self.profile)
        seconds = time.perf_counter() - t0
        key = (algo, cfg.max_iters)
        self.fastest[key] = min(self.fastest[key], (seconds, rec.steps_taken))
        return seconds, rec.steps_taken

    def round(self, budget_s: float = ROUND_S) -> None:
        """Passes over every algorithm's pair of runs, for about budget_s."""
        t_end = time.perf_counter() + budget_s
        while self.configs:
            for algo, (one, chunk) in list(self.configs.items()):
                before = self.references(self.pair_s[algo] / 2)
                try:
                    t_one, n_one = self.timed(algo, one)
                    t_chunk, n_chunk = self.timed(algo, chunk)
                except Exception as exc:  # a failed run is counted, not fatal
                    self.harness._fail(f"run {algo} seed {self.harness.seed}", [repr(exc)])
                    del self.configs[algo]
                    continue
                after = self.references(self.pair_s[algo] / 2)
                self.pair_s[algo] = t_one + t_chunk
                if n_chunk > n_one:
                    self.samples[algo].append(
                        (t_chunk - t_one) / (n_chunk - n_one) / statistics.mean(before + after))
            if time.perf_counter() >= t_end:
                break

    def step_cost(self) -> dict[str, float]:
        """Median seconds per step in reference calls, per algorithm that ran."""
        return {a: statistics.median(v) for a, v in self.samples.items() if v}

    def fastest_step_s(self) -> dict[str, float]:
        """Fastest chunk minus fastest single iteration, per extra step."""
        out = {}
        for algo in ALGORITHMS:
            (t_one, n_one), (t_chunk, n_chunk) = (
                v for k, v in sorted(self.fastest.items()) if k[0] == algo)
            if n_chunk > n_one and np.isfinite(t_chunk - t_one):
                out[algo] = (t_chunk - t_one) / (n_chunk - n_one)
        return out


class Harness:
    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def _timeout(self) -> float:
        return max(1.0, min(INVOCATION_TIMEOUT_S, self.deadline - time.perf_counter()))

    def run_cli(self, seed: int, traced_spans: Path | None = None):
        """One metagrad invocation at this seed, checked; returns (inv, out, ok)."""
        config = self.workload.config(seed, self.workdir)
        out = self.workdir / f"out_{self.attempted}_seed{seed}"
        shutil.rmtree(out, ignore_errors=True)
        args = self.workload.cli_args(seed, config, out)
        if traced_spans is None:
            argv = [sys.executable, "-m", "metagrad.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(traced_spans), *args]
        self.attempted += 1
        inv = invoke(argv, self.workdir, self._timeout())
        problems = check_outputs(self.workload, seed, config, out, inv)
        if problems:
            self._fail(f"{self.workload.command} seed {seed}", problems)
        return inv, out, not problems

    def setup_once(self, config: Path, ratios: list[float]) -> None:
        """Time the set-up once in a fresh interpreter; append its time in
        reference_kernel calls made next to it."""
        self.attempted += 1
        inv = invoke([sys.executable, str(HERE / "child.py"), "setup", str(config)],
                     self.workdir, self._timeout())
        if inv.code != 0 or "Traceback" in inv.stderr:
            self._fail("setup", [f"exit code {inv.code}"])
            return
        times = json.loads(inv.stdout.strip().splitlines()[-1])
        ratios.append(times["setup_s"] / times["reference_s"])

    def inputs(self, seed: int):
        """Resolved config, family, w0 and profile of the workload at this seed."""
        return build_inputs(str(self.workload.config(seed, self.workdir)))

    # ------------------------------------------------------------ modes

    def end_to_end(self, t_end: float) -> dict:
        fingerprint = load_fingerprint().get(self.workload.name)
        config = self.workload.config(self.seed, self.workdir)
        steps = StepTimer(self)
        ratios = []

        def fill(until: float) -> None:
            """Set-up probes, each followed by a round of step timings."""
            step_s = 0.0
            while time.perf_counter() + step_s <= until:
                t0 = time.perf_counter()
                self.setup_once(config, ratios)
                steps.round()
                step_s = time.perf_counter() - t0

        # Two invocations: one at the default seed, where the outputs must
        # hash to the recorded fingerprint, and one at the workload seed.
        # Probes and rounds fill the time between and after them, half and
        # half, so that a busy phase of the host does not cover them all.
        inv, out, ok = self.run_cli(DEFAULT_SEED)
        invocations = [inv]
        bytes_match = float(ok and output_hashes(out) == fingerprint)
        shutil.rmtree(out, ignore_errors=True)
        self.setup_once(config, ratios)
        steps.round()
        fill(time.perf_counter() + (t_end - time.perf_counter() - inv.wall_s) / 2)
        inv, out, _ = self.run_cli(self.seed)
        invocations.append(inv)
        shutil.rmtree(out, ignore_errors=True)
        fill(t_end)
        cost = steps.step_cost()
        print(f"{self.workload.name} fastest ms: " + ", ".join(
            f"{a}/{n} {1e3 * t:.3f}" for (a, n), (t, _) in sorted(steps.fastest.items()))
            + f", reference {1e3 * steps.fastest_reference:.4f}; {len(ratios)} set-up probes, "
            + ", ".join(f"{len(v)} {a} samples" for a, v in steps.samples.items()),
            file=sys.stderr)

        # Co-tenants slow the host in phases that alternate within
        # milliseconds, and a 0.1-0.3 s set-up averages whatever share of
        # slow time it meets.  reference_kernel calls made just before and
        # after it meet the same share, so set-up in units of their mean
        # time follows the code, not the host; it is reported in seconds
        # at a nominal reference speed.
        setup_s = REFERENCE_NOMINAL_S * statistics.median(ratios) if ratios else 0.0
        metrics = {"setup_s": (setup_s, "s")}
        for algo in ALGORITHMS:
            metrics[f"step_cost.{algo}"] = (cost.get(algo, 0.0), "ref")
        metrics["peak_rss_mb"] = (statistics.median(i.peak_rss_mb for i in invocations), "MB")
        metrics["ok_frac"] = ((self.attempted - self.failed) / max(1, self.attempted), "frac")
        metrics["bytes_match"] = (bytes_match, "bool")
        return metrics

    def check_trace(self, trace: dict) -> None:
        """Fail the run if the tracer saw no optimizer runs, or if the
        keyed draws per iteration at the default seed differ from the
        counts the benchmark was sized with."""
        self.attempted += 1
        problems = []
        if not trace["functions"].get("optimizer.run"):
            problems.append("no optimizer.run spans: the tracer wrapped nothing")
        expected = SEED_DRAWS_PER_ITER.get(self.workload.name)
        if self.seed == DEFAULT_SEED and expected is not None:
            got = tuple(trace["draws_per_iter"].get(a, 0.0) for a in ALGORITHMS)
            if got != expected:
                problems.append(f"keyed draws per iteration {got}, expected {expected}")
        if problems:
            self._fail("trace", problems)

    def per_layer(self) -> dict:
        from layers import layer_metrics, microbenchmarks
        from tracer import analyze

        spans = self.workdir / "spans.npz"
        steps = StepTimer(self)
        traced, out, _ = self.run_cli(self.seed, traced_spans=spans)
        shutil.rmtree(out, ignore_errors=True)
        steps.round()
        plain, out, _ = self.run_cli(self.seed)
        shutil.rmtree(out, ignore_errors=True)
        steps.round()
        trace = analyze(spans) if spans.is_file() else {"functions": {}, "draws_per_iter": {}, "spans": 0}
        spans.unlink(missing_ok=True)
        self.check_trace(trace)
        metrics = layer_metrics(trace)
        metrics["trace.traced_wall_s"] = (traced.wall_s, "s")
        metrics["trace.untraced_wall_s"] = (plain.wall_s, "s")
        metrics["trace.untraced_cpu_s"] = (plain.cpu_s, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced.wall_s / plain.wall_s - 1.0), "%")
        metrics["trace.spans"] = (trace["spans"], "count")
        for algo, seconds in steps.fastest_step_s().items():
            metrics[f"optimizer.us_per_iter.{algo}"] = (1e6 * seconds, "us")
        metrics["perfbench.reference_us"] = (1e6 * steps.fastest_reference, "us")
        resolved, family, w0, profile = self.inputs(self.seed)
        metrics.update(microbenchmarks(self.seed, resolved, family, w0, profile))
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    missing = [p for p in (SRC / "metagrad" / "cli.py", CONFIGS / "fig1.json",
                           CONFIGS / "fig2.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not a metagrad checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(WORKLOADS[args.workload], args.seed, workdir, start + 170.0)
        if args.trace:
            metrics = harness.per_layer()
        else:
            metrics = harness.end_to_end(start + args.seconds - STARTUP_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still holds its own work directory

    for problem in harness.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
