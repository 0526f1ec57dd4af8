"""Span tracer for the metagrad package, installed from outside its source.

``install`` wraps every public module-level function of every metagrad
module (plus ``RunRecord.to_csv``) and rebinds the wrapper under every
name that refers to the original in any metagrad module, because the
package imports its own functions with ``from .x import y``.  Each call
appends one span (function id, parent span, depth, start, end) to a
per-thread buffer; nothing is aggregated while the program runs.
``dump`` writes the buffers to an ``.npz`` file and ``analyze`` turns
that file into per-layer numbers.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Spans of the seed thread pool are
children of the innermost main-thread span that encloses them, and a
parent's cover of such children is the union of their intervals, since
they overlap one another.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array

import numpy as np

MODULES = (
    "numerics",
    "tasks",
    "closed_form",
    "meta_gradient",
    "stochastic",
    "stepsize",
    "optimizer",
    "verification",
    "cli",
)
# Calls that materialize a keyed RNG stream and draw from it.
DRAW_FUNCTIONS = ("numerics.uniforms", "numerics.standard_normals")
# Work that run() does before its first iteration.
SETUP_FUNCTIONS = ("tasks.local_smoothness", "closed_form.analyze_quadratic")
RUN_FUNCTION = "optimizer.run"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[tuple] = []  # one per thread, in creation order
        self.runs: list[tuple[int, int, str, int]] = []  # (buffer, span, algorithm, steps)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self):
        # name id, parent span, depth, start ns, end ns, open-span stack, buffer index
        with self._lock:
            buf = (array("i"), array("q"), array("h"), array("q"), array("q"), [],
                   len(self.buffers))
            self.buffers.append(buf)
        self._local.buf = buf
        return buf

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        local = self._local
        clock = time.perf_counter_ns
        is_run = qualname == RUN_FUNCTION

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            names, parents, depths, starts, ends, stack, _ = buf
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            depths.append(len(stack))
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_run:
                config = args[1] if len(args) > 1 else kwargs["config"]
                self.runs.append((buf[6], idx, config.algorithm, result.steps_taken))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every metagrad module in place."""
        package = importlib.import_module("metagrad")
        mods = [package] + [importlib.import_module(f"metagrad.{m}") for m in MODULES]
        replacements = {}
        for short, mod in zip(MODULES, mods[1:]):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replacements[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    setattr(mod, name, replacements[id(obj)][1])
        record = importlib.import_module("metagrad.optimizer").RunRecord
        record.to_csv = self.wrap("optimizer.RunRecord.to_csv", record.to_csv)

    def dump(self, path) -> None:
        arrays = {"names": np.array(self.names), "n_threads": np.array(len(self.buffers))}
        for b, (names, parents, depths, starts, ends, _, _) in enumerate(self.buffers):
            arrays[f"thread{b}"] = np.stack([
                np.frombuffer(names, dtype=np.int32).astype(np.int64),
                np.frombuffer(parents, dtype=np.int64),
                np.frombuffer(depths, dtype=np.int16).astype(np.int64),
                np.frombuffer(starts, dtype=np.int64),
                np.frombuffer(ends, dtype=np.int64),
            ])
        arrays["runs"] = np.array(
            [(b, i, s) for b, i, _, s in self.runs], dtype=np.int64
        ).reshape(-1, 3)
        arrays["run_algorithms"] = np.array([a for _, _, a, _ in self.runs], dtype=str)
        np.savez(path, **arrays)


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyze(path) -> dict:
    """Per-function call counts, inclusive and self seconds, and draws per step.

    Returns {"functions": {qualname: {"calls", "total_s", "self_s"}},
    "draws_per_iter": {algorithm: keyed draws per step of run()},
    "spans": total span count}.  Keyed draws inside the setup that run()
    performs (local_smoothness, analyze_quadratic) are not counted.
    """
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    nid = {n: i for i, n in enumerate(names)}
    threads = [data[f"thread{b}"] for b in range(int(data["n_threads"]))]
    calls = np.zeros(len(names), dtype=np.int64)
    total_ns = np.zeros(len(names), dtype=np.int64)
    self_ns = np.zeros(len(names), dtype=np.int64)
    draw_ids = [nid[n] for n in DRAW_FUNCTIONS if n in nid]
    setup_ids = [nid[n] for n in SETUP_FUNCTIONS if n in nid]
    run_id = nid.get(RUN_FUNCTION, -1)
    run_algo = {(int(b), int(i)): (str(a), int(s))
                for (b, i, s), a in zip(data["runs"], data["run_algorithms"])}
    draws = {}
    steps = {}
    for algo, s in run_algo.values():
        steps[algo] = steps.get(algo, 0) + s

    # Roots of pool threads become children of the innermost main-thread
    # span that encloses them; their cover is an interval union.
    cross = {}
    if threads:
        main = threads[0]
        for t in threads[1:]:
            for j in np.nonzero(t[1] == -1)[0]:
                lo, hi = int(t[3, j]), int(t[4, j])
                inside = np.nonzero((main[3] <= lo) & (main[4] >= hi))[0]
                if inside.size:
                    host = int(inside[np.argmax(main[3, inside])])
                    cross.setdefault(host, []).append((lo, hi))

    for b, t in enumerate(threads):
        fn, parent, depth, start, end = t
        dur = end - start
        n = fn.shape[0]
        if n == 0:
            continue
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        covered = covered.astype(np.int64)
        if b == 0:
            for host, ivs in cross.items():
                covered[host] += _union_length(ivs)
        np.add.at(calls, fn, 1)
        np.add.at(total_ns, fn, dur)
        np.add.at(self_ns, fn, dur - covered)

        # nearest run() ancestor and whether a setup function is on the path
        run_anc = np.full(n, -1, dtype=np.int64)
        in_setup = np.zeros(n, dtype=bool)
        is_run = fn == run_id
        is_setup = np.isin(fn, setup_ids)
        for level in range(int(depth.max()) + 1):
            idx = np.nonzero(depth == level)[0]
            par = parent[idx]
            inherited = np.where(par >= 0, run_anc[np.maximum(par, 0)], -1)
            run_anc[idx] = np.where(is_run[idx], idx, inherited)
            in_setup[idx] = is_setup[idx] | ((par >= 0) & in_setup[np.maximum(par, 0)])
        counted = np.isin(fn, draw_ids) & (run_anc >= 0) & ~in_setup
        for r in np.nonzero(is_run)[0]:
            algo = run_algo.get((b, int(r)), (None, 0))[0]
            if algo is not None:
                draws[algo] = draws.get(algo, 0) + int(np.count_nonzero(run_anc[counted] == r))

    functions = {
        names[i]: {
            "calls": int(calls[i]),
            "total_s": float(total_ns[i]) / 1e9,
            "self_s": float(self_ns[i]) / 1e9,
        }
        for i in range(len(names))
        if calls[i]
    }
    per_iter = {a: draws.get(a, 0) / steps[a] for a in steps if steps[a] > 0}
    return {
        "functions": functions,
        "draws_per_iter": per_iter,
        "spans": int(sum(t.shape[1] for t in threads)),
    }
