"""The heap policy `import uception` sets, and the host facts a manifest
records. The policy tests run in child processes: it acts once, at import,
on the whole process."""
import json
import os
import platform
import subprocess
import sys

import pytest

from uception import host

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
on_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc only")

# The second of two tiled predictions of a (43, 41, 46) volume at patch 16
# (27 tiles): about 15k minor faults with glibc's default heap, under 10
# with the policy.
PREDICT_FAULTS = """
import resource
import numpy as np
from uception.models import UceptionCfg, build_uception
from uception.training import predict_volume
model = build_uception(UceptionCfg(base_depth=4, levels=2, dropout_rate=0.18), seed=0,
                       dtype=np.float32)
image = np.random.default_rng(0).random((43, 41, 46), dtype=np.float32)
predict_volume(model, image, 16)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
predict_volume(model, image, 16)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

MANIFEST_POLICY = """
import json, os, sys
from uception.cli import write_manifest
path = os.path.join(sys.argv[1], "manifest.json")
with open(write_manifest(path, "phantom", {}, 0, [], ""), encoding="utf-8") as fh:
    print(json.dumps(json.load(fh)["heap_policy"]))
"""


def _child(code, *args, **env):
    clean = {k: v for k, v in os.environ.items()
             if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    clean.update(env, PYTHONPATH=os.path.join(REPO, "src"))
    clean.update(dict.fromkeys(host.BLAS_THREAD_VARS, "1"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=clean, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@on_glibc
def test_tiled_prediction_keeps_its_heap_mapped():
    faults = _child(PREDICT_FAULTS)
    assert faults < 500, f"{faults} minor faults in the second tiled prediction"


@on_glibc
def test_manifest_records_the_applied_policy(tmp_path):
    assert _child(MANIFEST_POLICY, str(tmp_path)) == {
        "mmap_threshold": host.MMAP_THRESHOLD, "top_pad": host.TOP_PAD}


@on_glibc
@pytest.mark.parametrize("var, value", [("MALLOC_TOP_PAD_", "16777216"),
                                        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")])
def test_glibc_malloc_settings_override_the_policy(tmp_path, var, value):
    assert _child(MANIFEST_POLICY, str(tmp_path), **{var: value}) is None


def test_malloc_tuned_reads_only_glibc_malloc_settings():
    assert host._malloc_tuned({"MALLOC_MMAP_THRESHOLD_": "0"})
    assert host._malloc_tuned({"GLIBC_TUNABLES": "glibc.rtld.x=1:glibc.malloc.top_pad=0"})
    assert not host._malloc_tuned({"MALLOC_CONF": "x", "GLIBC_TUNABLES": "glibc.rtld.x=1"})

