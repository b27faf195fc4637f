"""Multi-task micro-LLM recommender with collaborative embedding fusion."""

import os

# The matrices here are tiny, so OpenBLAS's extra threads only spin: pin it to
# one thread unless the environment already chooses. This must run before any
# submodule imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
