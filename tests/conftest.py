"""Pin BLAS to one thread for the test run.

The suite's dense problems are small, so threaded BLAS only adds
contention and run-to-run noise.  These variables are read when numpy
loads its BLAS, which has not happened yet when pytest loads this file;
``setdefault`` leaves a caller's explicit setting alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
