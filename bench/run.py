"""Run one driftchain benchmark workload and print its metrics.

    python3 bench/run.py --workload mc-wide --seed 0 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    mc-wide   driftchain verify, n=4000, reps=2048, on descents, removal(b=2), circle
    mc-long   driftchain simulate, n=25000, reps=256, on friedman(1,2)
    dp        on each of the three mc-wide models, the rational DP to n=250 and
              the float DP to n=600, each followed by the law's moments

Each workload is a closed loop: one model run after another, each starting
when the previous one returns.  A run makes one untimed warm-up pass over the
models, then repeats timed passes until the passes add up to ``--seconds``.
After each timed pass, and at the end until there are ``SETUP_REPEATS`` of
them, it times the set-up of driftchain in a fresh process (``setup_s``).  Every
model run is checked, and every pass must reproduce the output digests of the
warm-up pass, so a traced pass that computes anything different fails; a
failed check counts as a failed operation, and a model run that raises ends
the run without a result.

With ``--trace 0`` the timed passes run untraced and give the end-to-end
metrics: ``pass_s`` sums the fastest run of each op over the run's passes,
and ``updates_per_s`` divides the updates of those runs by their engine time;
the summary lines also give the median and tail of every op.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones give the per-layer metrics, and the two together give the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.  The exit code is 0 whenever a result is
printed, 1 when a model run raised, and 2 when the benchmark cannot run at
all, for instance because the checkout has no driftchain sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback

SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.build_model_s": "s",
    "theory.model_clt_params_s": "s",
    "models.law_band_s": "s",
    "models.law_band_calls": "count",
    "models.law_band_rows": "count",
    "models.increment_law_calls": "count",
    "chain.replicate_final_s": "s",
    "chain.replicate_rng_s": "s",
    "chain.kernel_s": "s",
    "chain.steps": "count",
    "chain.uniform_bytes": "bytes",
    "chain.table_builds_per_step": "ratio",
    "chain.workers2_efficiency": "ratio",
    "exact.evolve_exact_s": "s",
    "exact.evolve_float_s": "s",
    "exact.cells": "count",
    "exact.peak_width": "count",
    "exact.cells_per_s_exact": "1/s",
    "exact.cells_per_s_float": "1/s",
    "exact.float_mass_defect": "ratio",
    "exact.items_s": "s",
    "exact.moment_of_s": "s",
    "exact.exact_moments12_s": "s",
    "stats.standardize_s": "s",
    "stats.check_moments_s": "s",
    "stats.ks_distance_s": "s",
    "stats.build_report_s": "s",
    "trace.overhead_frac": "ratio",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import driftchain
from driftchain import cli, theory
for path in sys.argv[2:]:
    theory.model_clt_params(cli.build_model(cli.load_config(path)))
print(time.perf_counter() - t0)
print(driftchain.__file__)
"""


def tail(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) <= 10:
        return f"median {med:.6g}, no tail percentile (needs > 10 samples), {len(values)} samples"
    pct = 100 * (1 - 10 / len(values))
    return (f"median {med:.6g}, p{pct:.0f} {values[len(values) - 11]:.6g}, "
            f"{len(values)} samples")


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}

    def setup_seconds(self) -> float:
        from workloads import ROOT, SRC, config_path

        paths = [str(config_path(c)) for c in self.workload.configs]
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, origin = proc.stdout.split("\n")[:2]
        if not origin.startswith(str(SRC)):
            raise RuntimeError(f"set-up imported driftchain from {origin}")
        return float(seconds)

    def one_pass(self, traced: bool):
        from tracing import Tracer

        tracer = Tracer(full=traced)
        ops = []
        for name in self.workload.ops:
            self.attempted += 1
            try:
                op = self.workload.run(name, self.seed, tracer)
            except Exception:  # a crash is a failed operation, not a crashed run
                self.failed += 1
                self.failures.append(f"{name}: {traceback.format_exc()}")
                continue
            ref = self.reference.setdefault(name, op.digest)
            if op.digest != ref:
                op.failures.append(f"{name}: output differs between passes")
            self.failed += bool(op.failures)
            self.failures += op.failures
            ops.append(op)
        return tracer, ops

    def run(self) -> dict:
        # Set-ups are spread over the run, one after each timed pass, so their
        # median does not hang on the host's speed during a single second.
        setup = []
        self.one_pass(traced=False)  # warm-up, untimed; fixes reference digests
        passes = {False: [], True: []}
        measured = 0.0
        traced = False
        while (measured < self.seconds or not passes[False]
               or (self.trace and not passes[True])):
            tracer, ops = self.one_pass(traced)
            if len(ops) < len(self.workload.ops):
                raise RuntimeError("a model run raised; no pass can be timed")
            passes[traced].append((tracer, ops))
            measured += sum(op.seconds for op in ops)
            if not self.trace:
                setup.append(self.setup_seconds())
            traced = self.trace and not traced
        while not self.trace and len(setup) < SETUP_REPEATS:
            setup.append(self.setup_seconds())
        summary = self.summary(passes[False])
        if self.trace:
            metrics = self.per_layer(passes)
            summary.append("spans of the last traced pass:")
            summary += self_times(passes[True][-1][0])
        else:
            best = self.best_ops(passes[False])
            metrics = {
                "setup_s": statistics.median(setup),
                "pass_s": sum(op.seconds for op in best),
                "updates_per_s": (sum(op.updates for op in best)
                                  / sum(op.engine_seconds for op in best)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            summary.append(f"pass_s (the fastest run of each op, summed): "
                           f"{metrics['pass_s']:.6g}")
            summary.append(f"setup_s: {tail(setup)}")
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        return {"summary": summary, "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}

    def best_ops(self, untraced) -> list:
        """The fastest untraced run of each op.

        On a shared 2-vCPU virtual machine the host's speed was seen to switch
        between a fast state and one about 1.4x slower, in spells of seconds
        to minutes that have nothing to do with the program.  A median over a
        run follows the share of slow spells in it; each op's fastest run in
        a run of many passes reads the program in the fast state.
        """
        return [min((op for _, ops in untraced for op in ops if op.config == name),
                    key=lambda op: op.seconds)
                for name in self.workload.ops]

    def summary(self, untraced) -> list[str]:
        w = self.workload
        lines = [f"workload {w.name}, seed {self.seed}, "
                 f"{len(untraced)} untraced timed passes"]
        lines.append(f"pass seconds ({w.pass_name}): " + tail(
            [sum(op.seconds for op in ops) for _, ops in untraced]))
        for name in w.ops:
            lines.append(f"  {name} op seconds: " + tail(
                [op.seconds for _, ops in untraced for op in ops if op.config == name]))
        return lines

    def per_layer(self, passes) -> dict:
        rows = [self.layer_row(tracer, ops) for tracer, ops in passes[True]]
        metrics = {name: statistics.median(row[name] for row in rows)
                   for name in rows[0]}
        untraced = statistics.median(sum(op.seconds for op in ops)
                                     for _, ops in passes[False])
        traced = statistics.median(sum(op.seconds for op in ops)
                                   for _, ops in passes[True])
        metrics["trace.overhead_frac"] = traced / untraced - 1
        metrics["chain.workers2_efficiency"] = 0.0
        if self.workload.workers_config is not None:
            eff, runs, bad = self.workload.workers_efficiency(
                self.seed, self.reference[self.workload.workers_config])
            self.attempted += runs
            self.failed += len(bad)
            self.failures += bad
            metrics["chain.workers2_efficiency"] = eff
        return metrics

    @staticmethod
    def layer_row(tracer, ops) -> dict:
        c = tracer.counters
        rf = tracer.seconds("chain.replicate_final")
        row = {
            "cli.build_model_s": tracer.seconds("cli.build_model"),
            "theory.model_clt_params_s": tracer.seconds("theory.model_clt_params"),
            "models.law_band_s": c["models.law_band_s"],
            "models.law_band_calls": c["models.law_band_calls"],
            "models.law_band_rows": c["models.law_band_rows"],
            "models.increment_law_calls": c["models.increment_law_calls"],
            "chain.replicate_final_s": rf,
            "chain.replicate_rng_s": c["chain.replicate_rng_s"],
            # Derived: replicate_final minus its uniforms and its table builds.
            "chain.kernel_s": (rf - c["chain.replicate_rng_s"] - c["models.law_band_s"]
                               if rf else 0.0),
            "chain.steps": c["chain.steps"],
            # Computed from array sizes: one chunk's uniform matrix.
            "chain.uniform_bytes": c["chain.uniform_bytes"],
            "chain.table_builds_per_step": (c["models.law_band_calls"] / c["chain.steps"]
                                            if c["chain.steps"] else 0.0),
            "exact.evolve_exact_s": tracer.seconds("exact.evolve_exact"),
            "exact.evolve_float_s": tracer.seconds("exact.evolve_float"),
            "exact.cells": c["exact.cells_exact"] + c["exact.cells_float"],
            "exact.peak_width": c["exact.peak_width"],
            "exact.float_mass_defect": c["exact.float_mass_defect"],
            "exact.items_s": tracer.seconds("exact.items"),
            "exact.moment_of_s": tracer.seconds("exact.moment_of"),
            "exact.exact_moments12_s": tracer.seconds("exact.exact_moments12"),
        }
        for mode in ("exact", "float"):
            busy = row[f"exact.evolve_{mode}_s"]
            row[f"exact.cells_per_s_{mode}"] = c[f"exact.cells_{mode}"] / busy if busy else 0.0
        for name in ("standardize", "check_moments", "ks_distance", "build_report"):
            row[f"stats.{name}_s"] = tracer.seconds(f"stats.{name}")
        return row


def self_times(tracer) -> list[str]:
    return [f"  {name}: {calls} calls, {total:.6g} s total, {own:.6g} s self"
            for name, (calls, total, own) in sorted(tracer.totals().items())]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None) -> int:
    args = parse_args(argv)
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"bench: cannot import driftchain from this checkout: {exc}",
              file=sys.stderr)
        return 2
    table = workloads if workloads is not None else wl.WORKLOADS
    if args.workload not in table:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("bench: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    runner = Runner(table[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        result = runner.run()
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        for failure in runner.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    for line in result["summary"]:
        print(line)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
