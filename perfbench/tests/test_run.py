"""The command's output contract, against the metric lists in BENCHMARK.json."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import spans
from conftest import BENCH

ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_per_layer_list_matches_the_tracer():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.layer_metric_units()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_metric(trace, section):
    proc = run(ROOT, "--workload", "train_unet3d", "--seed", "7", "--seconds", "0.5",
               "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}


def test_fails_without_the_engine_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run(tmp_path, "--workload", "train_uception", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
