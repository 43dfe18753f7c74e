"""relphase: relative-phase subspace toolkit.

Truncated Fock-space coherent states, total/difference block
decompositions, spin-coherent contraction diagnostics, phase twirls over
arbitrary priors, product-state factorization reports, and an exact
cyclic-lattice realization of relative/collective coordinates.

All state values are immutable after construction and all operations are
pure functions, so everything here is safe to share across threads.
"""

from .blocks import (
    BlockState,
    default_cutoff,
    from_blocks,
    mean_photon_number,
    to_blocks,
    two_mode_coherent,
)
from .cli import main
from .factorize import (
    FactorizationReport,
    InsufficientCutoffError,
    approx_product,
    approx_product_balanced,
    factorization_fidelity,
    relative_state_overlap,
    relative_target,
    sweep_fidelity,
    twirled_hs_distance,
)
from .fock import (
    DensityMatrix,
    SizeLimitError,
    coherent_vector,
    fidelity_pure_mixed,
    hs_distance,
    inner,
    purity,
)
from .lattice import (
    QuditPairState,
    displace,
    from_relative_basis,
    momentum_eigenstate,
    product_pair,
    reduced_relative,
    relative_pair,
    shift_prior,
    sum_gate,
    to_relative_basis,
    twirl_displacement,
    twirled_relative,
)
from .spin import (
    SpinParams,
    contraction_overlap,
    embed_wh,
    params_from_modes,
    spin_coherent,
)
from .twirl import (
    UNIFORM,
    Observable,
    PriorGrid,
    UniformPrior,
    coherence_witness,
    expectation,
    parse_prior,
    point_prior,
    random_commutant_observable,
    twirl_single_mode,
    twirl_two_mode,
    two_point_prior,
    von_mises_prior,
)

__version__ = "0.1.0"
