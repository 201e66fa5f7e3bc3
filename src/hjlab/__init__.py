"""hjlab: a numerical laboratory for 1D viscous Hamilton-Jacobi homogenization.

The package computes effective Hamiltonians of

    du/dt = a(x) d2u/dx2 + G(du/dx) + beta * V(x)

in stationary random media via certified one-sided corrector profiles,
and cross-checks the result against a monotone finite-difference solver.
The namespace is the union of the library modules' ``__all__`` lists.
"""

from .corrector import *
from .effective import *
from .environment import *
from .errors import *
from .hamiltonian import *
from .pde import *
from .probe import *

__version__ = "0.1.0"
