"""Momentum-pair solutions for two contact-interacting electrons in a 1D box.

Two electrons in a unit-length infinite well, coupled by a pointlike
interaction of dimensionless strength U, admit momentum pairs (k1, k2) that
solve a pair of transcendental quantization conditions.  For equal quantum
numbers and attractive coupling the pair is a complex-conjugate pair (the
energy k1^2 + k2^2 stays real); for unequal numbers the momenta are purely
real and are reached through a variational energy estimate.

Front door: :func:`pairwell.solve` / :func:`pairwell.solve_state` for single
states, :func:`pairwell.sweep` for strength-grid curves, and the ``pairwell``
command-line tool for JSON/CSV output.
"""

from .cimethod import (
    CIEigenstate,
    CIHamiltonian,
    SymmetricBasis,
    build_hamiltonian,
    energy_for_state,
    interaction_element,
    kinetic_element,
    spectrum,
)
from .errors import (
    BadPanelCount,
    DegenerateDenominator,
    DegenerateState,
    IdenticallyZero,
    LabelNotFound,
    NoConvergence,
    PairwellError,
    ReductionFailed,
    SingularJacobian,
    SolutionRejected,
    WrongSolvePath,
)
from .numerics import (
    NewtonConfig,
    NewtonReport,
    newton_solve,
    simpson_1d,
    simpson_2d,
)
from .perturb import PerturbativeShift, initial_guess, radicand, shifts
from .solver import (
    SolveRequest,
    SweepPoint,
    SweepResult,
    solve,
    solve_state,
    solve_with_diagnostics,
    sweep,
)
from .transcend import (
    MomentumPair,
    StateLabel,
    TranscendentalCase,
    jacobian,
    residual,
    verify_solution,
)
from .wavefn import (
    DensityGrid,
    SingletWavefunction,
    density_grid,
    normalize,
    schrodinger_residual,
    singlet_amplitude,
    triplet_amplitude,
)

__version__ = "0.1.0"

__all__ = [
    "BadPanelCount",
    "CIEigenstate",
    "CIHamiltonian",
    "DegenerateDenominator",
    "DegenerateState",
    "DensityGrid",
    "IdenticallyZero",
    "LabelNotFound",
    "MomentumPair",
    "NewtonConfig",
    "NewtonReport",
    "NoConvergence",
    "PairwellError",
    "PerturbativeShift",
    "ReductionFailed",
    "SingletWavefunction",
    "SingularJacobian",
    "SolutionRejected",
    "SolveRequest",
    "StateLabel",
    "SweepPoint",
    "SweepResult",
    "SymmetricBasis",
    "TranscendentalCase",
    "WrongSolvePath",
    "build_hamiltonian",
    "density_grid",
    "energy_for_state",
    "initial_guess",
    "interaction_element",
    "jacobian",
    "kinetic_element",
    "newton_solve",
    "normalize",
    "radicand",
    "residual",
    "schrodinger_residual",
    "shifts",
    "simpson_1d",
    "simpson_2d",
    "singlet_amplitude",
    "solve",
    "solve_state",
    "solve_with_diagnostics",
    "spectrum",
    "sweep",
    "triplet_amplitude",
    "verify_solution",
]
