"""adelic-zeta: exact and numerical machinery for theta-weighted lattice
sums over the rationals, spherical (Hecke) transforms at a prime, Euler
products with completed functional equations, and the band-model spectral
picture of critical-line zeros.

Subpackages
-----------
numkit   quadrature, gamma, compensated sums, root bracketing
satake   double cosets (rank <= 2), exact spherical transform at any rank, local factors
lfun     coefficient tables, Euler products, completed zeta / weight-12 cusp form
theta    restricted test functions, Fourier pairs, lattice sums, Mellin side
polya    critical-line samplers, zero scans, band discretization, bounds
records  JSON round trips of the value objects, CSV and text views
cli      reproducible batch commands over all of the above
"""

from ._backend import BACKEND

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
