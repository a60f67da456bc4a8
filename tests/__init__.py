"""Importing this package pins BLAS to one thread, before numpy loads (the root
``conftest.py`` imports it first). OpenBLAS splits a large product across threads,
and the split moves its rounding: without the pin the golden digests of the d = 1000
CMDP and the d = 10^4 quadratic would depend on the machine's core count."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
