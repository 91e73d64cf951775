"""Package surface: what ``driftchain`` exports, and what set-up imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftchain
from driftchain import chain, cli, exact, stats
from test_cli import CIRCLE, DESCENTS, FRIEDMAN01, IDLA, REMOVAL, URN

SRC = Path(driftchain.__file__).resolve().parent.parent

# One config of every kind that ``cli.build_model`` accepts.
CONFIGS = [DESCENTS, URN, FRIEDMAN01, REMOVAL, CIRCLE, IDLA]

# Run in a fresh interpreter: the set-up the benchmark times, every
# numpy-free command, then one simulate, whose CSV it prints.
SETUP_SCRIPT = """
import contextlib, io, sys
import driftchain
from driftchain import cli, theory

paths, malformed, out = sys.argv[1:-2], sys.argv[-2], sys.argv[-1]
for path in paths:
    theory.model_clt_params(cli.build_model(cli.load_config(path)),
                            check_degenerate=False)
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for path in paths:
        assert cli.main(["theory", path]) == cli.EXIT_OK, path
    assert cli.main(["theory", malformed]) == cli.EXIT_CONFIG
    cli.build_parser().format_help()
    for flag in ("--help", "--version"):
        try:
            cli.main([flag])
        except SystemExit as exc:
            assert exc.code == 0, flag
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print("numpy loaded:", loaded[:3])
cli.main(["simulate", paths[0], "--n", "40", "--reps", "7", "--seed", "11",
          "--out", out])
print("thread pool loaded:", "concurrent.futures" in sys.modules)
"""


def test_every_export_resolves_and_is_listed_once():
    names = driftchain.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(driftchain, name)]
    assert missing == []


def test_each_export_is_its_defining_modules_object():
    for name in driftchain.__all__[1:]:
        home = importlib.import_module(f"driftchain.{driftchain._SUBMODULE[name]}")
        value = getattr(driftchain, name)
        assert value is getattr(home, name), name
        if callable(value):
            assert value.__module__ == home.__name__, name
    assert driftchain.__version__ is importlib.import_module("driftchain._version").__version__


def test_dir_and_star_import_list_every_export():
    assert set(driftchain.__all__) <= set(dir(driftchain))
    namespace: dict = {}
    exec("from driftchain import *", namespace)
    assert set(driftchain.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(driftchain, name) for name in driftchain.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        driftchain.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    assert not hasattr(driftchain, "band_masses")


def test_cli_engine_names_are_the_engines_objects():
    assert cli.replicate_final is chain.replicate_final
    assert cli.rng_id is chain.rng_id
    assert cli.evolve_exact is exact.evolve_exact
    assert cli.moment_of is exact.moment_of
    assert cli.verify is stats.verify


def test_setup_and_theory_never_import_numpy(tmp_path, capsys):
    assert sorted(cfg["kind"] for cfg in CONFIGS) == sorted(cli.MODEL_KINDS)
    paths = []
    for i, cfg in enumerate(CONFIGS):
        paths.append(tmp_path / f"{cfg['kind']}{i}.json")
        paths[-1].write_text(json.dumps(cfg))
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"kind": "friedman", "alpha": 0}))
    out = tmp_path / "fresh.csv"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, *map(str, paths),
                           str(malformed), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["numpy loaded: []", "thread pool loaded: False"]

    here = tmp_path / "here.csv"
    assert cli.main(["simulate", str(paths[0]), "--n", "40", "--reps", "7",
                     "--seed", "11", "--out", str(here)]) == cli.EXIT_OK
    assert out.read_text() == here.read_text()
