"""Self-improving retrosynthetic planning on a synthetic reaction universe.

Each name is imported from the module that defines it; importing the package
itself only pins the BLAS threads.
"""

import os as _os

# Checkpoint bytes depend on how many threads BLAS sums a product with, so
# the library runs it on one unless the caller says otherwise. This must
# happen before any submodule imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
