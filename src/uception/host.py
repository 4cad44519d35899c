"""What a run depends on outside numpy's API: glibc's heap policy, set once
when the package is imported, and the BLAS core and thread settings that
decide the float bits.

A tiled forward frees and reallocates the same few MiB of scratch in every
tile. By default glibc hands freed heap back to the kernel and maps it
again a moment later: a 27-tile (43, 41, 46) volume took 15k-18k minor
page faults, and takes under 10 with the policy.
``HEAP_POLICY`` keeps arrays below 32 MiB on the heap and up to 16 MiB of
freed heap mapped; it acts on the whole process. glibc's own ``MALLOC_*_``
variables and ``glibc.malloc.*`` tunables take precedence: when any is set,
nothing is changed.
"""
import ctypes
import os

import numpy as np

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# mallopt parameter numbers from glibc's malloc.h
M_TOP_PAD = -2
M_MMAP_THRESHOLD = -3
# Both are needed: setting M_TOP_PAD alone freezes glibc's dynamic mmap
# threshold at 128 KiB, so every large array is mapped and unmapped again.
MMAP_THRESHOLD = 32 << 20
TOP_PAD = 16 << 20


def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _malloc_tuned(environ):
    return (any(k.startswith("MALLOC_") and k.endswith("_") for k in environ)
            or "glibc.malloc." in environ.get("GLIBC_TUNABLES", ""))


def _apply_heap_policy():
    """Apply the heap policy through glibc's mallopt; return what was set,
    or None off glibc or when the environment already tunes malloc."""
    if not _on_glibc() or _malloc_tuned(os.environ):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # M_MMAP_THRESHOLD fails (returns 0) where the value is above glibc's
    # limit; M_TOP_PAD always succeeds, so it is set only after the first
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TOP_PAD, TOP_PAD):
        return {"mmap_threshold": MMAP_THRESHOLD, "top_pad": TOP_PAD}
    return None


HEAP_POLICY = _apply_heap_policy()


def blas_core():
    """The CPU core whose kernels numpy's bundled OpenBLAS chose at load
    time; a DYNAMIC_ARCH build picks them per machine, and the f32 bytes
    follow the kernels."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in names:
        if "openblas" not in name:
            continue
        try:
            corename = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown core"
