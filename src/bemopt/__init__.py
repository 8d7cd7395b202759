"""Building-energy surrogate toolkit: sample, train, calibrate, optimize.

The pipeline stages are exposed as submodules:

- ``schema``      the fixed variable declaration, schedules, episodes, normalization
- ``weather``     synthetic weekly weather traces and CSV I/O
- ``rcsim``       the lumped-RC building simulator used as ground truth
- ``autodiff``    minimal reverse-mode tensor library + Adam
- ``model``       the windowed-attention surrogate and the FFN baseline
- ``training``    dataset sampling, loss, metrics, training loop
- ``calibration`` CMA-ES and the trace-matching calibration loop
- ``pareto``      NSGA-II and the comfort/consumption optimization
- ``cli``         the ``bemopt`` command line entry point

Importing the package sets the process heap policy once (see
``_set_heap_policy``).
"""

import ctypes

__version__ = "0.1.0"

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's own ceiling for its dynamic mmap threshold on 64-bit hosts
_MMAP_THRESHOLD = 32 << 20
# well above the heap swing of one training step or one inference batch
_TRIM_THRESHOLD = 512 << 20


def _set_heap_policy() -> None:
    """Keep freed heap pages for reuse instead of returning them to the OS.

    A training step or a batched forward allocates and frees tens of MB of
    arrays. By default glibc trims the heap top between these swings, so
    every step faults the same pages in again (thousands of minor faults
    per training step at the acceptance config). Any mallopt call switches
    glibc's dynamic mmap threshold off, so both thresholds are set: arrays up
    to 32 MiB come from the heap, and the heap top is only trimmed once
    512 MiB of it is free. Does nothing where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_set_heap_policy()
