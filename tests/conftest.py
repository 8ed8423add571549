"""Run the suite with one BLAS/OpenMP thread, as the benchmark does.

The learned-dynamics fit sums its normal equations with BLAS, whose last
bits depend on the thread count, so a golden pinned at one count fails at
another. pytest loads this file before any test module imports numpy, so
setting the variables here reaches the BLAS pools.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
