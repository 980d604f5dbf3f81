"""frostdem: discrete-element freeze-thaw simulation and impact-test analysis.

Submodules
----------
packing     two-phase cylindrical particle packings and contact detection
thermal     inter-particle conduction, expansion coefficients, uniformity
frostheave  radius increments, the coupled freeze driver, contact statistics
mechanics   bonded-particle dynamics, uniaxial testing, calibration
analysis    wave energies, strength ratios, fractal dimension, pore spectra
cli         experiment orchestration with deterministic artifacts
"""

__version__ = "0.1.0"

from . import analysis, frostheave, mechanics, packing, thermal  # noqa: F401
