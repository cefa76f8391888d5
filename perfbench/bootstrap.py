"""Process set-up shared by every benchmark entry point.

Import this module before numpy: it pins the BLAS thread count (OpenBLAS
reads it once, when numpy loads) and puts the checkout's ``src`` first on
``sys.path``, so the benchmark always measures the source next to it and
never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread. On a 2-core machine shared with other tenants, a
# two-thread BLAS call waits for the slower of both cores, and the idle
# second thread spins while numpy evaluates the sin/cos basis on the main
# thread. In two ten-run sets taken back to back, the spread of op_s_p50 was
# 5-6% (rate_cell_16k, verify_pass) with one thread and 16-17% with two; the
# host's load also drifts, so part of that gap may be time, not threads. One
# thread also makes round-off, and so the oracle's outputs, independent of
# the core count.
BLAS_THREADS = 1

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

if not (SRC / "nystrom_krr").is_dir():
    sys.exit(f"perfbench: no package source at {SRC / 'nystrom_krr'}")
sys.path.insert(0, str(SRC))
