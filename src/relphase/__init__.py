"""relphase: relative-phase subspace toolkit.

Truncated Fock-space coherent states, total/difference block
decompositions, spin-coherent contraction diagnostics, phase twirls over
arbitrary priors, product-state factorization reports, and an exact
cyclic-lattice realization of relative/collective coordinates.

All state values are immutable after construction and all operations are
pure functions, so everything here is safe to share across threads.

Each public name is declared once, in the ``__all__`` of the module that
defines it; ``relphase.__all__`` is their concatenation.
"""

from .blocks import *
from .cli import *
from .factorize import *
from .fock import *
from .lattice import *
from .spin import *
from .twirl import *

__all__ = (
    blocks.__all__ + cli.__all__ + factorize.__all__ + fock.__all__
    + lattice.__all__ + spin.__all__ + twirl.__all__
)

__version__ = "0.1.0"
