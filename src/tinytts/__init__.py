"""tinytts: low-resource TTS data tooling and a desk-scale attention trainer."""

import os
import sys

# One BLAS thread per process, set before numpy loads. OpenBLAS splits long
# weight-gradient reductions across its threads, so the count would move a
# trained model's bits with the host; parallelism is --jobs processes. A
# program that loads numpy before tinytts owns the setting.
if "numpy" not in sys.modules:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

__version__ = "0.1.0"
