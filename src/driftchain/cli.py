"""Command-line front end.

Subcommands::

    driftchain theory   CONFIG [--require-nondegenerate] [--out FILE]
    driftchain exact    CONFIG --n N [--rational] [--budget CELLS] [--out FILE]
    driftchain simulate CONFIG [--n N] [--reps R] [--seed S] [--out FILE]
    driftchain verify   CONFIG [--n N] [--reps R] [--seed S] [--kmax K] [--out FILE]

CONFIG is a JSON file selecting a model::

    {"kind": "descents"}
    {"kind": "circle"}
    {"kind": "idla"}
    {"kind": "friedman", "alpha": 0, "beta": 1}
    {"kind": "removal", "b": 2, "mu": [[0, 1, 3], [1, 1, 3], [2, 1, 3]]}
    {"kind": "urn", "N": 2, "mu1": [[-1, 1, 2], [2, 1, 2]],
     "mu2": [[0, 1, 2], [2, 1, 2]], "a0": 1, "b0": 1}

Measures are atom lists ``[[value, mass_numerator, mass_denominator], ...]``
so that configs stay exact all the way into the dynamic-programming engine.
Unknown fields are rejected.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 degenerate
model, 4 DP budget exceeded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from fractions import Fraction

from ._version import __version__
from .errors import (
    DEFAULT_CELL_BUDGET,
    BudgetExceededError,
    ConfigError,
    DegenerateLimitError,
    ModelValidationError,
    SmallUrnError,
)
from .measures import FiniteMeasure
from .models import (
    DriftModel,
    UrnSpec,
    make_balanced_urn,
    make_circle_model,
    make_descents_model,
    make_friedman,
    make_idla_model,
    make_removal_urn,
)
from .theory import DEFAULT_K_MAX, model_clt_params

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4

MODEL_KINDS = ("descents", "urn", "friedman", "removal", "circle", "idla")

# The engine entry points the commands run, by the module that defines them.
# Only exact, simulate and verify import an engine, and with it numpy, and
# they do so when they run; ``cli.<name>`` resolves to the engine's object.
_ENGINE_NAMES = {"replicate_final": "chain", "rng_id": "chain",
                 "evolve_exact": "exact", "moment_of": "exact", "verify": "stats"}


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        module = importlib.import_module(f".{_ENGINE_NAMES[name]}", __package__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# config parsing


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _check_fields(cfg: dict, required: set[str], optional: set[str]) -> None:
    present = set(cfg) - {"kind"}
    missing = required - present
    if missing:
        raise ConfigError(f"config is missing fields: {sorted(missing)}")
    unknown = present - required - optional
    if unknown:
        raise ConfigError(f"config has unknown fields: {sorted(unknown)}")


def _config_int(cfg: dict, key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"config is missing fields: [{key!r}]")
        return default
    value = cfg[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _config_measure(cfg: dict, key: str) -> FiniteMeasure:
    atoms = cfg[key]
    if not isinstance(atoms, list) or not atoms:
        raise ConfigError(
            f"field {key!r} must be a non-empty list of [value, num, den] atoms")
    pairs = []
    for atom in atoms:
        if not isinstance(atom, list) or len(atom) != 3:
            raise ConfigError(
                f"field {key!r}: each atom must be [value, num, den], got {atom!r}")
        value, num, den = atom
        for part in (value, num, den):
            if not isinstance(part, int) or isinstance(part, bool):
                raise ConfigError(
                    f"field {key!r}: atom entries must be integers, got {atom!r}")
        if den <= 0:
            raise ConfigError(f"field {key!r}: mass denominator must be positive")
        if num < 0:
            raise ConfigError(f"field {key!r}: mass numerator must be >= 0")
        pairs.append((value, Fraction(num, den)))
    try:
        return FiniteMeasure.from_pairs(pairs)
    except ModelValidationError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def build_model(cfg: dict) -> DriftModel:
    """Construct the model a config describes.

    Raises :class:`ConfigError` for malformed configs and lets constructor
    errors (:class:`ModelValidationError`, :class:`DegenerateLimitError`)
    propagate.
    """
    kind = cfg.get("kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(
            f"config field 'kind' must be one of {MODEL_KINDS}, got {kind!r}")
    if kind == "descents":
        _check_fields(cfg, set(), set())
        return make_descents_model()
    if kind == "circle":
        _check_fields(cfg, set(), set())
        return make_circle_model()
    if kind == "idla":
        _check_fields(cfg, set(), set())
        return make_idla_model()
    if kind == "friedman":
        _check_fields(cfg, {"alpha", "beta"}, {"a0", "b0"})
        return make_friedman(_config_int(cfg, "alpha"), _config_int(cfg, "beta"),
                             a0=_config_int(cfg, "a0", 1),
                             b0=_config_int(cfg, "b0", 1))
    if kind == "removal":
        _check_fields(cfg, {"b", "mu"}, {"a0", "b0"})
        return make_removal_urn(_config_int(cfg, "b"), _config_measure(cfg, "mu"),
                                a0=_config_int(cfg, "a0", 1),
                                b0=_config_int(cfg, "b0", 1))
    # kind == "urn"
    _check_fields(cfg, {"N", "mu1", "mu2"}, {"a0", "b0"})
    spec = UrnSpec(N=_config_int(cfg, "N"),
                   mu1=_config_measure(cfg, "mu1"),
                   mu2=_config_measure(cfg, "mu2"),
                   a0=_config_int(cfg, "a0", 1),
                   b0=_config_int(cfg, "b0", 1))
    return make_balanced_urn(spec)


# ---------------------------------------------------------------------------
# output helpers


def _emit(text: str, out_path: str | None, also_stdout: bool = True) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if not also_stdout:
            return
    sys.stdout.write(text)


def _check_horizon(model: DriftModel, n: int) -> None:
    if n < model.start.n:
        raise ConfigError(
            f"--n {n} precedes the {model.name} start index {model.start.n}")


def _check_run_args(reps: int, seed: int) -> None:
    if reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {reps}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed must fit in an unsigned 64-bit integer, got {seed}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_theory(args: argparse.Namespace) -> int:
    report: dict = {key: None for key in
                    ("alpha1", "alpha2", "D1", "D2", "ell", "D", "variance")}
    report["degenerate"] = False
    report["reason"] = None
    try:
        model = build_model(load_config(args.config))
    except DegenerateLimitError as exc:
        # Constructors reject a-priori-degenerate models (e.g. a removal urn
        # whose removal count is deterministic); report instead of crashing.
        report["degenerate"] = True
        report["D"] = float(exc.d_value)
        report["reason"] = str(exc)
    else:
        coeffs = model.coeffs
        report["alpha1"] = float(coeffs.alpha_lim[0])
        report["alpha2"] = float(coeffs.alpha_lim[1])
        report["D1"] = float(coeffs.D_lim[0])
        report["D2"] = float(coeffs.D_lim[1])
        try:
            params = model_clt_params(model, check_degenerate=False)
        except SmallUrnError as exc:
            report["degenerate"] = True
            report["reason"] = str(exc)
        else:
            report["ell"] = float(params.ell)
            report["D"] = float(params.D)
            if params.D <= 0:
                report["degenerate"] = True
                report["reason"] = (f"degenerate limit: D = {float(params.D)} "
                                    "is not > 0")
            else:
                report["variance"] = float(params.limit_variance)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    if report["degenerate"] and args.require_nondegenerate:
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    from .exact import evolve_exact, moment_of

    model = build_model(load_config(args.config))
    _check_horizon(model, args.n)
    mode = "exact" if args.rational else "float"
    dist = evolve_exact(model, args.n, mode=mode, cell_budget=args.budget)

    law = dist.nonzero()
    lines = ["raw,S,probability"]
    for raw, prob in sorted(law.items()):
        s = float(model.affine.s_value(args.n, raw))
        lines.append(f"{raw},{s!r},{float(prob)!r}")
    csv_text = "\n".join(lines) + "\n"

    m1 = moment_of(dist, model.affine, 1)
    m2 = moment_of(dist, model.affine, 2)
    m3 = moment_of(dist, model.affine, 3)
    summary = {
        "model": model.name,
        "n": args.n,
        "mode": mode,
        "rows": len(law),
        "total_probability": float(dist.total_mass()),
        "S_mean": float(m1),
        "S_variance": float(m2 - m1 * m1),
        "S_third_central": float(m3 - 3 * m1 * m2 + 2 * m1**3),
    }
    if args.out is not None:
        _emit(csv_text, args.out, also_stdout=False)
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .chain import replicate_final, rng_id

    model = build_model(load_config(args.config))
    _check_horizon(model, args.n)
    _check_run_args(args.reps, args.seed)
    # SmallUrnError propagates (exit 3): without alpha1 > -1/2 there is no
    # meaningful centering.  A nonpositive D still leaves z well defined.
    params = model_clt_params(model, check_degenerate=False)
    ell = float(params.ell)

    raws = replicate_final(model, args.n, args.reps, args.seed)
    s_vals = model.affine.s_array(args.n, raws)
    z_vals = (s_vals - args.n * ell) / math.sqrt(args.n)

    lines = [
        f"# driftchain simulate model={model.name} n={args.n} reps={args.reps}"
        f" seed={args.seed} rng={rng_id()} version={__version__}",
        "replicate,raw,S,z",
    ]
    for idx in range(args.reps):
        lines.append(
            f"{idx},{int(raws[idx])},{float(s_vals[idx])!r},{float(z_vals[idx])!r}")
    _emit("\n".join(lines) + "\n", args.out, also_stdout=False)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .stats import verify

    model = build_model(load_config(args.config))
    _check_horizon(model, args.n)
    _check_run_args(args.reps, args.seed)
    if args.kmax < 1:
        raise ConfigError(f"--kmax must be >= 1, got {args.kmax}")
    report = verify(model, args.n, args.reps, args.seed, k_max=args.kmax)
    _emit(report.to_json() + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftchain",
        description=("Exact and Monte Carlo analysis of bounded-increment "
                     "Markov chains with asymptotically linear drift."),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser(
        "theory", help="print the CLT constants and degeneracy verdict as JSON")
    theory.add_argument("config", help="path to a JSON model config")
    theory.add_argument("--out", default=None, help="also write the JSON here")
    theory.add_argument("--require-nondegenerate", action="store_true",
                        help="exit 3 when the limit is degenerate")
    theory.set_defaults(func=cmd_theory)

    exact = sub.add_parser(
        "exact", help="exact law of the chain at step n (CSV + JSON summary)")
    exact.add_argument("config", help="path to a JSON model config")
    exact.add_argument("--n", type=int, required=True, help="target step")
    exact.add_argument("--rational", action="store_true",
                       help="run the DP in exact rational arithmetic")
    exact.add_argument("--budget", type=int, default=DEFAULT_CELL_BUDGET,
                       help="DP cell budget (default %(default)s)")
    exact.add_argument("--out", default=None,
                       help="write CSV here (summary JSON then goes to stdout)")
    exact.set_defaults(func=cmd_exact)

    simulate = sub.add_parser(
        "simulate", help="draw seeded replicates of the chain at step n (CSV)")
    simulate.add_argument("config", help="path to a JSON model config")
    simulate.add_argument("--n", type=int, default=1000, help="target step")
    simulate.add_argument("--reps", type=int, default=10000,
                          help="number of replicates")
    simulate.add_argument("--seed", type=int, default=0, help="master seed")
    simulate.add_argument("--out", default=None, help="write the CSV here")
    simulate.set_defaults(func=cmd_simulate)

    verify_p = sub.add_parser(
        "verify", help="Monte Carlo check of the Gaussian limit (JSON report)")
    verify_p.add_argument("config", help="path to a JSON model config")
    verify_p.add_argument("--n", type=int, default=1000, help="target step")
    verify_p.add_argument("--reps", type=int, default=10000,
                          help="number of replicates")
    verify_p.add_argument("--seed", type=int, default=0, help="master seed")
    verify_p.add_argument("--kmax", type=int, default=DEFAULT_K_MAX,
                          help="highest moment order to check")
    verify_p.add_argument("--out", default=None, help="also write the JSON here")
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"driftchain: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SmallUrnError, DegenerateLimitError) as exc:
        print(f"driftchain: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ModelValidationError as exc:
        print(f"driftchain: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # e.g. --n below the start index caught inside the engine
        print(f"driftchain: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
