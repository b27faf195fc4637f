"""Test-session set-up that must run before anything imports numpy.

The matrices here are tiny, so OpenBLAS's extra threads only spin: pin it to
one thread unless the environment already chooses.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
