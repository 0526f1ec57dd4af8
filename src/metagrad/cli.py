"""Command-line harness for experiments and audits.

Subcommands: run (one algorithm to CSV), compare (all algorithms from a
shared seed, one CSV each plus a summary JSON), audit (the bound-audit
battery to JSON), quadratic-oracle (closed-form fixed points), and
gen-family (write a task family JSON from knobs).

Every emitted file gets a sidecar JSON echoing the fully resolved
configuration, defaults included, so outputs are self-describing.
Identical config and seed produce byte-identical files: no timestamps,
no machine-specific paths, floats at 17 significant digits.

Exit codes: 0 success, 1 runtime failure (divergence, non-finite
iterates or audit values, I/O), 2 configuration error, with a message
naming the violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from .closed_form import analyze_quadratic
from .errors import (
    ConfigError,
    DivergenceDetected,
    IllConditioned,
    InvalidBatchConfig,
    NumericalFailure,
)
from .meta_gradient import ALGORITHMS, MAML
from .numerics import RngStream
from .optimizer import OptimizerConfig, RunRecord, run, run_comparison
from .stepsize import StepsizeRule
from .stochastic import BatchSpec
from .tasks import (
    QUADRATIC,
    RANK1MF,
    QuadraticTask,
    SmoothnessProfile,
    TaskFamily,
    ball_points,
    is_integer,
    is_number,
    local_smoothness,
    random_quadratic_family,
    rank1_mf_family,
)

AUDIT_NAMES = (
    "bias",
    "second_moment",
    "grad_gap",
    "hvp_probe",
    "smoothness",
    "stepsize_moments",
    "kshot",
)

AUDIT_DEFAULTS = {
    "select": list(AUDIT_NAMES),
    "alpha_times_L": None,
    "n_mc": 20_000,
    "phi": 1.0,
    "D_in": [4, 25, 100],
    "D_o": 1_000_000,
    "D_test": [4, 16, 64],
    "n_probes": 200,
    "n_pairs": 500,
    "stepsize_points": 10,
    "stepsize_samples": 20_000,
    "K_list": [4, 64],
    "w_scale": 0.3,
}

CONFIG_DEFAULTS = {
    "family": None,
    "algorithms": list(ALGORITHMS),
    "alpha": 0.1,
    "stepsize": {"kind": "adaptive", "beta": None, "fraction": None},
    "batches": {"B": 20, "D_in": 1, "D_o": 1, "D_h": 1, "B_prime": 1, "D_beta": 1},
    "noise": {"sigma_tilde": 0.0, "sigma_H": 0.0},
    "max_iters": 1000,
    "target_grad_norm": 0.0,
    "w0": None,
    "trust_radius": 10.0,
    "full_task_batch": False,
    "seeds": [0],
    "audit": AUDIT_DEFAULTS,
}

GENERATE_DEFAULTS = {"kind": RANK1MF, "n": 10, "dim": 5, "similarity": 1.0, "seed": 0}

# A config value takes the kind of its default (each entry does, for a list);
# KINDS tests one value of each kind.  A number must fit a float and an
# integer an int64, as the family payload's numbers do.
KINDS = {
    "true or false": lambda v: isinstance(v, bool),
    "a number": is_number,
    "an integer": is_integer,
    "a positive number": lambda v: is_number(v) and 0 < v < np.inf,
    "a string": lambda v: isinstance(v, str),
}

# What the defaults cannot show: the kind a null default takes (null stays
# allowed), the positive audit values, and each count's least value (every
# entry's, for a list).
RULES = {
    **dict.fromkeys(["stepsize.beta", "stepsize.fraction"], "a number"),
    "w0": ["a number"],
    **dict.fromkeys(["audit.alpha_times_L", "audit.phi", "audit.w_scale"], "a positive number"),
    "seeds": 0,
    **dict.fromkeys(["audit.n_mc", "audit.stepsize_samples"], 2),  # a margin needs two draws
    **dict.fromkeys([f"audit.{k}" for k in ("D_in", "D_o", "D_test", "K_list", "n_probes",
                                            "n_pairs", "stepsize_points")], 1),
}

EXAMPLE_1D_FAMILY = (
    (np.array([[1.0]]), np.array([1.0])),
    (np.array([[2.0]]), np.array([-1.0])),
)


def _kind(default):
    """The KINDS name a default stands for, in a list for a list."""
    if isinstance(default, list):
        return [_kind(default[0])]
    kinds = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
    return kinds[type(default)]


def _leaf(kind, least, value, name: str):
    """value checked against its kind and least value; integral numbers become ints."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_leaf(kind[0], least, v, name) for v in value]
    if not KINDS[kind](value):
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        note = " (out of range)" if numeric and abs(value) >= 2**63 else ""
        raise ConfigError(f"{name} must be {kind}, got {value!r}{note}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    return int(value) if kind == "an integer" else value


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    """Defaults overlaid with given values, each checked by RULES or its default's kind."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path[:-1]} must be an object")
    out = {}
    for key, base in defaults.items():
        name, value, rule = path + key, given.get(key), RULES.get(path + key)
        if key not in given:
            out[key] = json.loads(json.dumps(base))  # deep copy of the default
        elif isinstance(base, dict):
            out[key] = _merge(base, value, f"{name}.")
        elif base is None and (value is None or rule is None):
            out[key] = value  # null, or a family: build_family checks it
        elif isinstance(rule, int):  # a least value
            out[key] = _leaf(_kind(base), rule, value, name)
        else:
            out[key] = _leaf(rule or _kind(base), None, value, name)
    for key in given:
        if key not in defaults:
            raise ConfigError(f"{path}{key} is not a recognized option")
    return out


def load_config(path: str, args) -> tuple[dict, Path]:
    """Resolve the experiment config: file, the overrides args carries, defaults."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        given = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(given, dict):
        raise ConfigError("config root must be a JSON object")
    if getattr(args, "seed", None) is not None:
        given["seeds"] = [args.seed]
    if getattr(args, "algorithms", None):
        given["algorithms"] = args.algorithms.split(",")
    if getattr(args, "max_iters", None) is not None:
        given["max_iters"] = args.max_iters
    resolved = _merge(CONFIG_DEFAULTS, given)
    validate_resolved(resolved)
    return resolved, p.parent


def validate_resolved(resolved: dict) -> None:
    """The checks that span several values or need names; _merge checked each value."""
    if resolved["family"] is None:
        raise ConfigError("family is required (inline, {\"path\": ...}, or {\"generate\": ...})")
    audit = resolved["audit"]
    for what, chosen, known in (("algorithm", resolved["algorithms"], ALGORITHMS),
                                ("audit selection", audit["select"], AUDIT_NAMES)):
        bad = [k for k in chosen if k not in known]
        if bad:
            raise ConfigError(f"unknown {what} {bad}; choose from {', '.join(known)}")
    for key in ("algorithms", "seeds"):  # seeds are replicates
        values = resolved[key]
        if not values or len(set(values)) != len(values):
            raise ConfigError(f"{key} must be distinct and nonempty, got {values}")
    if not audit["K_list"] or audit["K_list"] != sorted(audit["K_list"]):
        raise ConfigError(f"audit.K_list must be nonempty and ascending, got {audit['K_list']!r}")


def build_family(spec, config_dir: Path) -> TaskFamily:
    """Family from an inline dict, a file reference, or generator knobs."""
    if not isinstance(spec, dict):
        raise ConfigError("family must be an object")
    try:
        if "path" in spec:
            fp = Path(spec["path"])
            if not fp.is_absolute():
                fp = config_dir / fp
            if not fp.is_file():
                raise ConfigError(f"family file not found: {fp}")
            return TaskFamily.from_json(fp.read_text())
        if "generate" in spec:
            return generate_family(spec["generate"])
        return TaskFamily.from_dict(spec)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad family spec: {e}") from e


def generate_family(knobs: dict) -> TaskFamily:
    merged = _merge(GENERATE_DEFAULTS, knobs, "family.generate.")
    rng = RngStream(merged["seed"], ("gen_family",))
    n, dim, s = merged["n"], merged["dim"], merged["similarity"]
    if n < 1 or dim < 1:
        raise ConfigError(f"family.generate needs n >= 1 and dim >= 1, got n={n}, dim={dim}")
    if not np.isfinite(s):
        raise ConfigError(f"family.generate.similarity must be finite, got {s!r}")
    if merged["kind"] == RANK1MF:
        return rank1_mf_family(n, dim, rng, scale=s)
    if merged["kind"] == QUADRATIC:
        return random_quadratic_family(n, dim, rng, b_scale=s)
    raise ConfigError(f"unknown family kind {merged['kind']!r}")


def build_optimizer_config(resolved: dict, algorithm: str, seed: int) -> OptimizerConfig:
    shared = ("alpha", "max_iters", "target_grad_norm", "w0", "trust_radius", "full_task_batch")
    try:
        return OptimizerConfig(
            algorithm=algorithm,
            stepsize=StepsizeRule(**resolved["stepsize"]),
            batches=BatchSpec(**resolved["batches"]),
            seed=seed,
            **{key: resolved[key] for key in shared},
            **resolved["noise"],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def prepare(resolved: dict, config_dir: Path) -> tuple[TaskFamily, OptimizerConfig, SmoothnessProfile]:
    """Family, typed base config (first algorithm and seed) and smoothness
    profile, which depends only on the family, w0 and trust_radius."""
    family = build_family(resolved["family"], config_dir)
    base = build_optimizer_config(resolved, resolved["algorithms"][0], resolved["seeds"][0])
    try:
        w0 = base.start_point(family.dim)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return family, base, local_smoothness(family, w0, base.trust_radius)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _emit_with_sidecar(path: Path, text: str, command: str, resolved: dict, seed: int,
                       algorithm: str | None = None) -> None:
    _write(path, text)
    sidecar = {"command": command, "seed": seed, "algorithm": algorithm, "config": resolved}
    _write(path.with_suffix(path.suffix + ".config.json"), _json_text(sidecar))


def _say(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _emit_record(args, command: str, resolved: dict, rec: RunRecord) -> None:
    """One run's CSV with its sidecar, and its progress line."""
    path = Path(args.out) / f"{command}_{rec.algorithm}_seed{rec.seed}.csv"
    _emit_with_sidecar(path, rec.to_csv(), command, resolved, rec.seed, rec.algorithm)
    _say(args, f"{command} {rec.algorithm} seed={rec.seed}: steps={rec.steps_taken} "
               f"stop={rec.stop_reason} floor={rec.floor:.6g} "
               f"final={rec.final_grad_norm:.6g} -> {path}")


def cmd_run(args) -> int:
    resolved, config_dir = load_config(args.config, args)
    if len(resolved["algorithms"]) != 1:
        raise ConfigError(
            "run expects exactly one algorithm "
            f"(got {resolved['algorithms']}); use compare or --algorithms"
        )
    family, base, profile = prepare(resolved, config_dir)
    for seed in resolved["seeds"]:
        rec = run(family, dc_replace(base, seed=seed), profile=profile)
        _emit_record(args, "run", resolved, rec)
    return 0


def _floor_ratios(records: dict[str, RunRecord]) -> dict:
    floors = {a: r.floor for a, r in records.items()}
    ratios = {}
    others = [f for a, f in floors.items() if a != "fomaml"]
    if "fomaml" in floors and others:
        worst = max(others)
        ratios["fomaml_over_worst_other"] = (
            None if worst == 0.0 else floors["fomaml"] / worst
        )
    low = min(floors.values())
    ratios["max_over_min"] = None if low == 0.0 else max(floors.values()) / low
    return ratios


def cmd_compare(args) -> int:
    resolved, config_dir = load_config(args.config, args)
    family, base, profile = prepare(resolved, config_dir)
    out = Path(args.out)
    algorithms = tuple(resolved["algorithms"])

    for seed in resolved["seeds"]:
        records = run_comparison(
            family, dc_replace(base, seed=seed), algorithms=algorithms, profile=profile
        )
        for algo in algorithms:
            _emit_record(args, "compare", resolved, records[algo])
        summary = {
            "seed": seed,
            "alpha": base.alpha,
            "records": {a: records[a].summary() for a in algorithms},
            "floor_ratios": _floor_ratios(records),
        }
        spath = out / f"compare_summary_seed{seed}.json"
        _emit_with_sidecar(spath, _json_text(summary), "compare", resolved, seed)
        _say(args, f"compare summary seed={seed} -> {spath}")
        if args.gnuplot:
            gpath = out / f"compare_seed{seed}.gp"
            _emit_with_sidecar(gpath, _gnuplot_script(algorithms, seed), "compare", resolved, seed)
            _say(args, f"compare plot script seed={seed} -> {gpath}")
    return 0


def _gnuplot_script(algorithms: tuple[str, ...], seed: int) -> str:
    plots = ", \\\n     ".join(
        f"'compare_{a}_seed{seed}.csv' using 1:2 skip 1 with lines title '{a}'"
        for a in algorithms
    )
    return (
        "set datafile separator ','\n"
        "set logscale y\n"
        "set xlabel 'iteration'\n"
        "set ylabel 'exact meta-gradient norm'\n"
        f"plot {plots}\n"
    )


def run_audit_battery(family: TaskFamily, resolved: dict, base: OptimizerConfig,
                      profile: SmoothnessProfile, seed: int) -> dict:
    """Execute the selected audits and return a JSON-ready report.

    family, base and profile are ``prepare``'s; resolved supplies the audit section.
    """
    from .verification import (  # here, so that other commands never load the audits
        audit_bias,
        audit_grad_gap_F_hat,
        audit_hvp_probe_error,
        audit_kshot_floor,
        audit_second_moment,
        audit_smoothness_ratio,
        audit_stepsize_moments,
    )

    a = resolved["audit"]
    select = a["select"]
    w0 = base.start_point(family.dim)
    trust = base.trust_radius
    profile = profile.with_noise(base.sigma_tilde, base.sigma_H)
    alpha = base.alpha
    if a["alpha_times_L"] is not None:
        alpha = a["alpha_times_L"] / profile.L
    root = RngStream(seed, ("audit",))
    points = ball_points(w0, a["w_scale"] * trust, a["stepsize_points"], root.child("points"))
    w = points[0]
    entries = []

    def add(audit, suffix=""):
        entry = audit.to_dict()
        entry["name"] = audit.name + suffix
        bad = [k for k in ("measured", "bound", "mc_margin") if not np.isfinite(entry[k])]
        if bad:
            raise NumericalFailure(f"audit {entry['name']}: non-finite {' and '.join(bad)}")
        entries.append(entry)

    if "bias" in select:
        for d_in in a["D_in"]:
            add(
                audit_bias(family, w, alpha, d_in, a["D_o"], a["n_mc"], profile,
                           root.child("bias", d_in)),
                f"[D_in={d_in}]",
            )
    if "second_moment" in select:
        for d_in in a["D_in"]:
            add(
                audit_second_moment(family, w, alpha, d_in, a["D_o"], float(a["phi"]),
                                    a["n_mc"], profile, root.child("second_moment", d_in)),
                f"[D_in={d_in}]",
            )
    if "grad_gap" in select:
        for d_test in a["D_test"]:
            add(
                audit_grad_gap_F_hat(family, w, alpha, d_test, a["n_mc"], profile,
                                     root.child("grad_gap", d_test)),
                f"[D_test={d_test}]",
            )
    if "hvp_probe" in select and profile.rho > 0.0:  # constant Hessians: nothing to probe
        add(
            audit_hvp_probe_error(family, profile, alpha, w0, trust * a["w_scale"],
                                  a["n_probes"], root.child("hvp_probe"))
        )
    if "smoothness" in select:
        add(
            audit_smoothness_ratio(family, profile, alpha, w0, trust * a["w_scale"],
                                   a["n_pairs"], root.child("smoothness"))
        )
    if "stepsize_moments" in select:
        for b in audit_stepsize_moments(
            family, profile, alpha, points,
            base.batches.B_prime, base.batches.D_beta,
            a["stepsize_samples"], root.child("stepsize_moments"),
        ):
            add(b)
    kshot = None
    if "kshot" in select:
        cfg = dc_replace(base, algorithm=MAML, seed=seed)
        if base.w0 is None:
            # the all-zeros default is a stationary point of the
            # factorization families; start at the battery's probe point
            cfg = dc_replace(cfg, w0=w)
        kshot = audit_kshot_floor(family, alpha, a["K_list"], cfg, profile=profile)
    return {
        "seed": seed,
        "alpha": alpha,
        "audits": entries,
        "kshot_floors": kshot,
        "all_passed": all(e["passed"] for e in entries),
    }


def cmd_audit(args) -> int:
    resolved, config_dir = load_config(args.config, args)
    family, base, profile = prepare(resolved, config_dir)
    out = Path(args.out)

    for seed in resolved["seeds"]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused in add
            report = run_audit_battery(family, resolved, base, profile, seed)
        path = out / f"audit_seed{seed}.json"
        _emit_with_sidecar(path, _json_text(report), "audit", resolved, seed)
        verdict = "all passed" if report["all_passed"] else "FAILURES"
        _say(args, f"audit seed={seed}: {len(report['audits'])} checks, {verdict} -> {path}")
    return 0


def _format_vec(v: np.ndarray) -> str:
    return "[" + ", ".join("%.17g" % x for x in v) + "]"


def cmd_quadratic_oracle(args) -> int:
    if args.config is not None:
        resolved, config_dir = load_config(args.config, args)
        family = build_family(resolved["family"], config_dir)
        if family.kind != QUADRATIC:
            raise ConfigError("quadratic-oracle needs a quadratic family")
        alpha = resolved["alpha"] if args.alpha is None else args.alpha
    else:
        family = TaskFamily([QuadraticTask(A, b) for A, b in EXAMPLE_1D_FAMILY])
        alpha = 0.1 if args.alpha is None else args.alpha
    try:  # alpha as every command checks it
        alpha = OptimizerConfig(MAML, alpha, StepsizeRule()).alpha
    except ValueError as e:
        raise ConfigError(str(e)) from e
    analysis = analyze_quadratic(family, alpha)
    print(f"alpha: {alpha:.17g}")
    print(f"w_star: {_format_vec(analysis.w_star)}")
    print(f"w_fo: {_format_vec(analysis.w_fo)}")
    print(f"fo_gap: {analysis.fo_gap:.17g}")
    return 0


def cmd_gen_family(args) -> int:
    knobs = {
        "kind": args.kind,
        "n": args.n,
        "dim": args.dim,
        "similarity": args.similarity,
        "seed": args.seed if args.seed is not None else 0,
    }
    family = generate_family(knobs)
    name = args.name or f"family_{args.kind}_n{args.n}_d{args.dim}.json"
    path = Path(args.out) / name
    _write(path, family.to_json())
    _write(
        path.with_suffix(path.suffix + ".config.json"),
        _json_text({"command": "gen-family", "knobs": knobs}),
    )
    _say(args, f"gen-family {args.kind}: {args.n} tasks, dim {args.dim} -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metagrad",
        description="Meta-learning optimization experiments with exact analysis oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, help="replace the config's seeds with this one seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--max-iters", type=int, help="override max iterations")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_run = sub.add_parser("run", help="one algorithm, one CSV per replicate seed")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="all algorithms from a shared seed")
    common(p_cmp)
    p_cmp.add_argument("--gnuplot", action="store_true",
                       help="also emit a gnuplot script referencing the CSVs")
    p_cmp.set_defaults(func=cmd_compare)
    for p in (p_run, p_cmp):
        p.add_argument("--algorithms", help="comma-separated subset, e.g. maml,fomaml,hfmaml")

    p_audit = sub.add_parser("audit", help="run the bound-audit battery to JSON")
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_q = sub.add_parser("quadratic-oracle",
                         help="print closed-form fixed points of a quadratic family")
    p_q.add_argument("--config", help="config JSON of a quadratic family (default: a 1-d example)")
    p_q.add_argument("--alpha", type=float, default=None, help="inner stepsize override")
    p_q.set_defaults(func=cmd_quadratic_oracle)

    p_gen = sub.add_parser("gen-family", help="write a task family JSON from knobs")
    p_gen.add_argument("--kind", required=True, choices=[QUADRATIC, RANK1MF])
    p_gen.add_argument("--n", type=int, required=True, help="number of tasks")
    p_gen.add_argument("--dim", type=int, required=True, help="parameter dimension")
    p_gen.add_argument("--similarity", type=float, default=1.0,
                       help="task spread: target scale for rank1mf, offset scale for quadratic")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default="out", help="output directory (default: out)")
    p_gen.add_argument("--name", default=None, help="output filename (default: derived)")
    p_gen.add_argument("--quiet", action="store_true")
    p_gen.set_defaults(func=cmd_gen_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidBatchConfig) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DivergenceDetected, NumericalFailure, IllConditioned, MemoryError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
