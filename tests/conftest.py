"""Import the package before any test module imports numpy.

The package pins BLAS to one thread and takes its parallelism from its own
workers; both need the import to come first (see `photon_angmom.parallel`).
"""

import photon_angmom  # noqa: F401
