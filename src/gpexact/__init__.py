"""Exact kernel-based evolution for quadratic nonlocal Gross-Pitaevskii
models, with an independent split-step reference integrator."""

from .ehrenfest import (Matriciant, MomentPoint, MomentTrajectory,
                        integrate_moments, integrate_variations,
                        matriciant_blocks, symplectic_defect)
from .errors import (CausticError, GpexactError, IntegrationError, ModelError,
                     PlanError, ResolutionError, ResonanceError,
                     StabilityError)
from .evolution import (EvolveOptions, EvolutionPlan, evolve, evolve_composed,
                        evolve_inverse, plan_evolution, superpose)
from .kernel import (KernelContext, build_kernel_context,
                     closed_form_kernel_1d, closed_form_kernel_3d,
                     green_function, oscillator_kernel_factor)
from .model import (Example1DParams, Example3DParams, QuadraticModel,
                    build_model, effective_hessian, free_model,
                    harmonic_model, make_model, mean_drift_hessian,
                    model_1d, model_3d, model_to_spec)
from .moments import (StateConstants, constants_of_motion, effective_coupling,
                      first_moments, norm_squared, second_moments)
from .oracle import (OracleConfig, apply_effective_hamiltonian, gpe_residual,
                     split_step_evolve)
from .state import (Axis, GridState, check_resolved, gaussian_packet, inner,
                    l2_distance, l2_norm, load_state, save_state)
from .symmetry import (FockSolution, IntertwinedOperator, apply_symmetry,
                       fock_state, ladder_apply, ladder_operators,
                       one_parameter_family, quasi_energy)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
