"""Test-session setup shared by ``perfbench/`` and ``tests/``.

BLAS is pinned to one thread before anything imports numpy.  The suite's
matrices are small: a second BLAS thread about doubled its CPU time and
did not shorten its wall time.  A value already set in the environment
is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
