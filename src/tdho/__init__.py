"""Exact quantum propagator of the harmonic oscillator with time-dependent
frequency, reduced to one classical ODE solve plus a quadrature.

The shortest path through the library:

    >>> import tdho
    >>> profile = tdho.Constant(1.0)                  # omega^2(t) = 1
    >>> kv = tdho.kernel(profile, 0.0, 0.5, 0.0, 1.0)  # K(q_b=1, t_b=0.5; q_a=0, 0)
    >>> round(kv.modulus, 4)                           # |K|
    0.5762

Modules: freq_profile (the omega^2 families), classical (fundamental pair,
closed forms, residual grading), kernel (the propagator itself), evolve
(wavepackets, finite-difference and path-sliced cross-checks), specfun
(gamma and Bessel J from scipy.special, Legendre P summed here),
omega_expr (expression parser), cli (the tdho command).
"""

__version__ = "0.1.0"

from .classical import (ClosedFormSolution, FundamentalPair, ResidualReport,
                        SolutionCurve, closed_form, pair_from_solution,
                        solve_fundamental, verify_solution)
from .errors import (CausticAtEndpoint, CausticInWindow, DegenerateSolution,
                     DomainError, EvalAtImpulse, GridMismatch, GridTooNarrow,
                     NonFiniteError, ParseError, SolutionMismatch,
                     StabilityWarning, StepFailure, TdhoError,
                     UnknownIdentifierError)
from .evolve import (GaussianState, WavePacket, compare, crank_nicolson,
                     propagate_kernel, time_sliced_oracle, uniform_grid)
from .freq_profile import (Constant, DeltaPulse, ExpDecay, Expression,
                           FrequencyProfile, JumpEvent, PowerLaw, SechSquared,
                           Tabulated, profile_from_json)
from .kernel import (KernelValue, compute_W, kernel, kernel_batch,
                     kernel_eq17, kernel_robust, schrodinger_residual)

__all__ = [
    "__version__",
    # profiles
    "FrequencyProfile", "Constant", "ExpDecay", "PowerLaw", "DeltaPulse",
    "SechSquared", "Tabulated", "Expression", "JumpEvent", "profile_from_json",
    # classical
    "FundamentalPair", "SolutionCurve", "ClosedFormSolution", "ResidualReport",
    "solve_fundamental", "closed_form", "verify_solution", "pair_from_solution",
    # kernel
    "KernelValue", "kernel", "kernel_eq17", "kernel_robust", "kernel_batch",
    "compute_W", "schrodinger_residual",
    # evolution
    "WavePacket", "GaussianState", "propagate_kernel", "crank_nicolson",
    "time_sliced_oracle", "compare", "uniform_grid",
    # errors
    "TdhoError", "DomainError", "ParseError", "UnknownIdentifierError",
    "NonFiniteError", "EvalAtImpulse", "StepFailure", "DegenerateSolution",
    "SolutionMismatch", "CausticInWindow", "CausticAtEndpoint",
    "GridTooNarrow", "GridMismatch", "StabilityWarning",
]
