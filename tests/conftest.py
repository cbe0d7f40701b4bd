"""Test-session set-up.

BLAS threads are pinned to one before numpy is imported (setdefault keeps
a value the caller chose).  With default threading, small eigensolves
sometimes stalled for half a second, which is half of the wall-clock gate
of acceptance criteria 1 and 2.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
