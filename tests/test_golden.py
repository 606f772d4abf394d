"""Byte identity of the JSON reports against checked-in golden files.

Each case runs one command through ``main`` and compares the written report
byte for byte with ``tests/golden/<name>.json``.  A deliberate report change
regenerates the file with
``python -m wavesym <args> --format json --out tests/golden/<name>.json``.
Two cases also run in fresh interpreters under two hash seeds, since the
engine's tables are keyed by hash."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavesym
from wavesym.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (arguments, exit code)
CASES = {
    "derive": (["derive"], 0),
    "classify_i_d2": (["classify", "--case", "i", "--degree", "2"], 1),
    "classify_ii_d2": (["classify", "--case", "ii", "--degree", "2"], 1),
    "classify_i_d3": (["classify", "--case", "i", "--degree", "3"], 1),
    "classify_ii_d3": (["classify", "--case", "ii", "--degree", "3"], 1),
    "classify_i_d4": (["classify", "--case", "i", "--degree", "4"], 1),
    "classify_ii_d4": (["classify", "--case", "ii", "--degree", "4"], 1),
    "classify_i_d5": (["classify", "--case", "i", "--degree", "5"], 1),
    "classify_ii_d5": (["classify", "--case", "ii", "--degree", "5"], 1),
    # the top of the degree range the solve is checked byte for byte on
    "classify_i_d8": (["classify", "--case", "i", "--degree", "8"], 1),
    "classify_ii_d8": (["classify", "--case", "ii", "--degree", "8"], 1),
    # the exceptional exponent of ROADMAP item 3(a): dimension 7
    "classify_ii_d3_e1_m1o4": (
        ["classify", "--case", "ii", "--degree", "3", "--param", "e1=-1/4"], 1),
    # a concrete exponent with a fractional power: dimension 6
    "classify_ii_d2_e1_2_e2_1": (
        ["classify", "--case", "ii", "--degree", "2", "--param", "e1=2", "--param", "e2=1"], 1),
    "classify_i_d3_c3o2_Km1": (
        ["classify", "--case", "i", "--degree", "3", "--param", "c=3/2", "--param", "K=-1"], 1),
    "reduce_i_v1": (["reduce", "--case", "i", "--generator", "v1"], 0),
    "reduce_i_v4": (["reduce", "--case", "i", "--generator", "v4"], 0),
    "reduce_ii_v1": (["reduce", "--case", "ii", "--generator", "v1"], 0),
    "reduce_ii_v4": (["reduce", "--case", "ii", "--generator", "v4"], 0),
    # concrete parameters: the exp/ln shapes fold to powers and numbers
    "reduce_ii_v1_e1_2": (
        ["reduce", "--case", "ii", "--generator", "v1", "--param", "e1=2"], 1),
    "reduce_ii_v4_e1_m1o4_e2_1": (
        ["reduce", "--case", "ii", "--generator", "v4", "--param", "e1=-1/4", "--param", "e2=1"], 1),
    "reduce_i_v1_c3o2_Km1": (
        ["reduce", "--case", "i", "--generator", "v1", "--param", "c=3/2", "--param", "K=-1"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    args, code = CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(args + ["--format", "json", "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name", ["derive", "classify_ii_d3"])
def test_report_matches_golden_under_hash_seed(tmp_path, name, seed):
    args, code = CASES[name]
    out = tmp_path / f"{name}.json"
    src = os.path.dirname(os.path.dirname(wavesym.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "wavesym", *args, "--format", "json", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
