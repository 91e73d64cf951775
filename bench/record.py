"""Record the benchmark's reference digests and the machine it ran on.

    python3 bench/record.py

Writes ``provenance`` and ``digests`` into bench/baseline.json and keeps
any ``baseline`` figures already there (bench/spread.py --record writes
those).  The digests are what run.py checks outputs against: the sha256 of
each Monte Carlo workload's int64 replicate_final array for the default
seed, and of each exact law at the dp workload's exact horizon.  Rerun this
only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import numpy as np

from workloads import (BASELINE, CHUNK_SIZE, DEFAULT_SEED, ROOT, WORKLOADS, Dp,
                       MonteCarlo, array_digest, chain, exact, law_digest)


def read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> int:
    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "l3_cache": read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rng": chain.rng_id(),
        "git_commit": git_commit(),
        "working_sets": {},
    }
    digests = {}
    for w in WORKLOADS.values():
        sets = provenance["working_sets"].setdefault(w.name, {})
        if isinstance(w, MonteCarlo):
            for config in w.configs:
                model = w.model(config)
                steps = w.n - model.start.n
                sets[f"{config}.uniform_matrix_bytes"] = min(CHUNK_SIZE, w.reps) * steps * 8
                raws = chain.replicate_final(model, w.n, w.reps, DEFAULT_SEED)
                digests[w.digest_key(config, DEFAULT_SEED)] = array_digest(raws)
                print(f"recorded {w.name} {config}", flush=True)
        elif isinstance(w, Dp):
            for op in w.ops:
                config, mode = op.split("/")
                model = w.model(config)
                widths = [len(d.probs) for d in
                          exact.evolve_iter(model, w.horizon[mode], mode=mode)]
                sets[f"{op}.peak_width"] = max(widths)
                sets[f"{op}.cells"] = sum(widths)
                if mode == "exact":
                    dist = exact.evolve_exact(model, w.horizon[mode], mode="exact")
                    digests[w.digest_key(op, DEFAULT_SEED)] = law_digest(dist)
                print(f"recorded {w.name} {op}", flush=True)
    data = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    data.update(provenance=provenance, digests=digests)
    BASELINE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
