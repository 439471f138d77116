"""Desk-scale reproduction of collective vacuum Rabi oscillations, W-state
preparation, tomography and entanglement certification for up to three
transmons sharing one photon with a microwave resonator."""

__version__ = "0.1.0"

import os

# Every matrix cqedw multiplies is tiny (25 x 25 at most), where BLAS threads
# only add hand-offs, and on a busy machine they wait for a core.  This must
# run before numpy is first imported; a value the user has set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .device import CrosstalkMatrix, QubitParams, ResonatorParams, SystemConfig  # noqa: F401
from .hilbert import DensityMatrix, HilbertSpec  # noqa: F401
