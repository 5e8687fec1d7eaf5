"""Make the program and the benchmark importable, and keep the native
kernel's build cache in the checkout's ``.bench_build``, as ``run.py``
does."""

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_TMP = os.path.join(ROOT, ".bench_build", "tmp")
os.makedirs(_TMP, exist_ok=True)
os.environ["TMPDIR"] = _TMP
tempfile.tempdir = None
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
