"""Ground states of discrete nonlinear Schrodinger equations with a
spectral gap and Hardy weight, on truncated boxes of Z^N."""

from .errors import (ConfigError, ConvergenceError, DegenerateProblemError,
                     HypothesisError, InvalidInputError, LatticeGapError,
                     ModelHypothesisError, NoSpectralGapError, NumericalError,
                     PostConditionError, RhoOutOfRangeError,
                     SingularJacobianError, ZeroEigenvalueError)
from .lattice import (BoxDomain, LatticeField, delta_field, dirichlet_energy,
                      dirichlet_form, lp_norm, read_field, write_field,
                      zero_field)
from .spectral import (BlochBandTable, PeriodicPotential, SpectralSplit,
                       assemble_operator, assemble_torus_operator,
                       bloch_band_edges, bloch_matrix, checkerboard_potential,
                       constant_potential, laplacian_matrix, project,
                       spectral_split, split_inner, split_norm)
from .hardy import (EUCLIDEAN_WEIGHT, GRAPH_WEIGHT, HardyWeight,
                    InequalityConstants, best_hardy_constant,
                    compute_constants, rho_plus, weighted_mass)
from .nonlinearity import (CustomNonlinearity, Nonlinearity, PowerNonlinearity,
                           ZeroNonlinearity, validate_hypotheses)
from .energy import (NehariResidual, SiteTerms, evaluate_energy, gradient,
                     nehari_residual, rho_norm_plus)
from .solver import (GroundStateResult, SolverConfig, boundary_mass_fraction,
                     maximality_certificate, outer_minimize, polish_newton,
                     solve_ground_state)
from .continuation import (SweepPlan, SweepRecord, convergence_report,
                           superquadratic_mass, sweep_rho)

__version__ = "0.1.0"
