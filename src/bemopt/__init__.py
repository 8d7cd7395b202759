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
"""

__version__ = "0.1.0"
