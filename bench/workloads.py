"""The benchmark's workloads: the public calls each one makes per model, and
the checks on what those calls return.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other copy of driftchain, so the benchmark always measures the
code next to it.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
BASELINE = BENCH / "baseline.json"

sys.path.insert(0, str(SRC))
import driftchain  # noqa: E402

if Path(driftchain.__file__).resolve().parent != SRC / "driftchain":
    raise ImportError(f"driftchain was imported from {driftchain.__file__}, "
                      f"not from {SRC}")

from driftchain import chain, cli, exact, stats  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 0
# Replicates per Monte Carlo output that are re-simulated one step at a time
# through simulate_final, which must agree bit for bit with the fast path.
CHECKED_REPLICATES = 2
FLOAT_MASS_DEFECT_MAX = 1e-12
FLOAT_MEAN_REL_TOL = 1e-9
CHUNK_SIZE = inspect.signature(chain.replicate_final).parameters["chunk_size"].default


def config_path(config: str) -> Path:
    return CONFIGS / f"{config}.json"


def recorded_digests() -> dict:
    if not BASELINE.exists():
        return {}
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh).get("digests", {})


def array_digest(raws: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(raws, dtype=np.int64).tobytes()).hexdigest()


def law_digest(dist) -> str:
    """Digest of a lattice law: exact laws as reduced rationals, float laws bitwise."""
    h = hashlib.sha256(f"{dist.n}:{dist.offset}:".encode())
    if dist.is_exact():
        h.update(",".join(f"{p.numerator}/{p.denominator}" for p in dist.probs).encode())
    else:
        h.update(np.asarray(dist.probs, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class Op:
    """One model run: its wall time, the engine's share of it, and its checks."""

    config: str
    seconds: float
    engine_seconds: float  # replicate_final, or the DP sweep
    updates: int           # replicate-steps, or DP cells
    digest: str
    failures: list[str] = field(default_factory=list)


class _Workload:
    name: str
    configs: tuple[str, ...]  # the model configs the workload uses
    ops: tuple[str, ...]      # the model runs of one pass, in order

    def __init__(self):
        self._models: dict = {}

    def model(self, config: str):
        """The unwrapped model, built outside any tracer, for the checks."""
        if config not in self._models:
            self._models[config] = cli.build_model(cli.load_config(str(config_path(config))))
        return self._models[config]


class MonteCarlo(_Workload):
    """``driftchain verify`` or ``driftchain simulate`` through ``cli.main``."""

    def __init__(self, name: str, command: str, configs: tuple[str, ...],
                 n: int, reps: int, workers_config: str | None = None):
        super().__init__()
        self.name, self.command, self.configs = name, command, configs
        self.n, self.reps = n, reps
        self.ops = configs  # one op per model
        self.workers_config = workers_config
        self.pass_name = f"{command}_s"  # what one pass times, in the summary
        self._replayed: set[tuple[str, int, str]] = set()

    def digest_key(self, config: str, seed: int) -> str:
        return f"{self.name}/{config}/n={self.n}/reps={self.reps}/seed={seed}"

    def run(self, config: str, seed: int, tracer: Tracer) -> Op:
        argv = [self.command, str(config_path(config)), "--n", str(self.n),
                "--reps", str(self.reps), "--seed", str(seed)]
        text = io.StringIO()
        first = len(tracer.spans)
        with tracer.patched(), tracer.span("cli.main"), redirect_stdout(text):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        raws = tracer.results.pop("chain.replicate_final", None)
        rf_seconds = sum(s.end - s.start for s in tracer.spans[first:]
                         if s.name == "chain.replicate_final")
        model = self.model(config)
        steps = self.n - model.start.n
        tracer.counters["chain.steps"] += steps
        tracer.counters["chain.uniform_bytes"] = max(
            tracer.counters["chain.uniform_bytes"], min(CHUNK_SIZE, self.reps) * steps * 8)
        if raws is None:
            return Op(config, seconds, rf_seconds, self.reps * steps, "",
                      [f"{config}: replicate_final was not called (exit {code})"])
        op = Op(config, seconds, rf_seconds, self.reps * steps, array_digest(raws))
        op.failures += self.check(config, seed, code, text.getvalue(), raws)
        return op

    def check(self, config: str, seed: int, code: int, text: str,
              raws: np.ndarray) -> list[str]:
        model = self.model(config)
        bad = []
        if self.command == "verify":
            # Exit 1 is the verdict "a moment check failed", not an error.
            if code not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
                return [f"{config}: verify exited {code}"]
            report = json.loads(text)
            expected = {"model": model.name, "n": self.n, "reps": self.reps,
                        "master_seed": seed, "rng": chain.rng_id(),
                        "passed": code == cli.EXIT_OK}
            bad += [f"{config}: report {key} is {report.get(key)!r}, expected {want!r}"
                    for key, want in expected.items() if report.get(key) != want]
            z = stats.standardize(raws, model, self.n)
            for entry in report["checks"]:
                if entry["estimate"] != stats.empirical_moment(z, entry["k"])[0]:
                    bad.append(f"{config}: report moment {entry['k']} does not "
                               "come from the replicate_final array")
        else:
            if code != cli.EXIT_OK:
                return [f"{config}: simulate exited {code}"]
            lines = text.splitlines()
            if f"seed={seed} " not in lines[0] or lines[1] != "replicate,raw,S,z":
                bad.append(f"{config}: unexpected CSV header {lines[:2]!r}")
            printed = np.array([int(line.split(",")[1]) for line in lines[2:]],
                               dtype=np.int64)
            if not np.array_equal(printed, raws):
                bad.append(f"{config}: CSV raw column differs from replicate_final")
        digest = array_digest(raws)
        # An array bitwise equal to one already replayed needs no second replay.
        if (config, seed, digest) not in self._replayed:
            for i in range(min(CHECKED_REPLICATES, self.reps)):
                single = chain.simulate_final(model, self.n, chain.replicate_rng(seed, i))
                if single != raws[i]:
                    bad.append(f"{config}: replicate {i} is {raws[i]}, "
                               f"simulate_final gives {single}")
            if not bad:
                self._replayed.add((config, seed, digest))
        recorded = recorded_digests().get(self.digest_key(config, seed))
        if recorded is not None and recorded != digest:
            bad.append(f"{config}: replicate_final digest differs from the recorded one")
        return bad

    def workers_efficiency(self, seed: int, reference: str) -> tuple[float, int, list[str]]:
        """t(workers=1) / (2 t(workers=2)) on two chunks of replicates.

        Returns the efficiency, the number of runs made, and their failures;
        each run must reproduce the single-worker digest.
        """
        model = self.model(self.workers_config)
        times, bad = {}, []
        for workers in (1, 2):
            t0 = time.perf_counter()
            raws = chain.replicate_final(model, self.n, self.reps, seed,
                                         workers=workers, chunk_size=self.reps // 2)
            times[workers] = time.perf_counter() - t0
            if array_digest(raws) != reference:
                bad.append(f"{self.workers_config}: workers={workers} output differs")
        return times[1] / (2 * times[2]), 2, bad


class Dp(_Workload):
    """``exact.evolve_iter`` to a horizon, then the law's moments, per model
    and mode: each model runs once in exact mode and once in float mode.

    An op is named ``<config>/<mode>``.  In exact mode the op also runs
    ``exact_moments12``, the independent route to E S_n and E S_n^2 that the
    law is checked against.  In float mode that reference is computed once,
    outside the timed region.
    """

    def __init__(self, name: str, configs: tuple[str, ...], exact_n: int, float_n: int):
        super().__init__()
        self.name, self.configs = name, configs
        self.horizon = {"exact": exact_n, "float": float_n}
        self.ops = tuple(f"{config}/{mode}" for config in configs
                         for mode in ("exact", "float"))
        self.workers_config = None
        self.pass_name = "exact_law_s + float_law_s"
        self._reference: dict = {}

    def digest_key(self, op: str, seed: int) -> str:
        config, mode = op.split("/")
        return f"{self.name}/{config}/{mode}/n={self.horizon[mode]}"

    def run(self, op: str, seed: int, tracer: Tracer) -> Op:
        config, mode = op.split("/")
        n = self.horizon[mode]
        path = str(config_path(config))
        series = None
        with tracer.patched(), tracer.span("exact.law"):
            model = cli.build_model(cli.load_config(path))
            t0 = time.perf_counter()
            with tracer.span(f"exact.evolve_{mode}"):
                cells = peak = 0
                for dist in exact.evolve_iter(model, n, mode=mode):
                    width = len(dist.probs)
                    cells += width
                    peak = max(peak, width)
            dp_seconds = time.perf_counter() - t0
            with tracer.span("exact.items"):
                probs = [p for _, p in dist.items()]
            m1 = exact.moment_of(dist, model.affine, 1)
            m2 = exact.moment_of(dist, model.affine, 2)
            if mode == "exact":
                series = exact.exact_moments12(model, n)
            seconds = time.perf_counter() - t0
        counters = tracer.counters
        counters[f"exact.cells_{mode}"] += cells
        counters["exact.peak_width"] = max(counters["exact.peak_width"], peak)
        result = Op(op, seconds, dp_seconds, cells, law_digest(dist))
        result.failures += self.check(op, probs, m1, m2, series, result.digest, counters)
        return result

    def check(self, op: str, probs: list, m1, m2, series, digest: str,
              counters) -> list[str]:
        config, mode = op.split("/")
        n = self.horizon[mode]
        bad = []
        if mode == "exact":
            last, e1, e2 = series.final()
            if last != n:
                bad.append(f"{op}: exact_moments12 stopped at {last}")
            if sum(probs) != 1:
                bad.append(f"{op}: exact law mass is {sum(probs)}, not 1")
            if m1 != e1:
                bad.append(f"{op}: E S_n {m1} differs from the recursion's {e1}")
            if series.k2_exact and m2 != e2:
                bad.append(f"{op}: E S_n^2 {m2} differs from the recursion's {e2}")
            recorded = recorded_digests().get(self.digest_key(op, DEFAULT_SEED))
            if recorded is not None and recorded != digest:
                bad.append(f"{op}: exact law digest differs from the recorded one")
        else:
            if config not in self._reference:
                self._reference[config] = exact.exact_moments12(
                    self.model(config), n).final()[1]
            e1 = self._reference[config]
            defect = abs(1.0 - math.fsum(probs))
            counters["exact.float_mass_defect"] = max(
                counters["exact.float_mass_defect"], defect)
            if defect > FLOAT_MASS_DEFECT_MAX:
                bad.append(f"{op}: float law mass defect {defect:.3g}")
            if abs(m1 - float(e1)) > FLOAT_MEAN_REL_TOL * max(1.0, abs(float(e1))):
                bad.append(f"{op}: float mean {m1!r} is off the exact {float(e1)!r}")
        return bad


C7_MODELS = ("descents", "removal", "circle")

WORKLOADS = {
    w.name: w for w in (
        MonteCarlo("mc-wide", "verify", C7_MODELS, n=4000, reps=2048,
                   workers_config="descents"),
        MonteCarlo("mc-long", "simulate", ("friedman",), n=25000, reps=256),
        Dp("dp", C7_MODELS, exact_n=250, float_n=600),
    )
}
