"""Paths, fixed settings and the child environment shared by run.py,
worker.py and workloads.py. Imports nothing from quonlib."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
BLAS_THREADS = 1
MIN_PASSES = 4      # every run makes at least this many passes


def child_env():
    """Every child interpreter: quonlib from src/, fixed hash seed and
    BLAS threads."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONHASHSEED": "0"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env
