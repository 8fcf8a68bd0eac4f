"""Exact Z2 x Z2 graded-algebra engine with a field-theory toolkit.

Layers, bottom up:
  core / expr        graded polynomial ring with exact scalars
  derivations        graded derivations, superspace operators, brackets
  superfield         component expansion, variation tables, closure
  potential          prepotential pairs, closed forms and series
  action             superspace action to component Lagrangian pipeline
  variational        Euler-Lagrange operators and conserved currents
  dmodule            matrix realization on the component multiplet
  sim                leapfrog integrator for the bosonic sector
  cli                command-line entry points
"""

from .core import (DEG00, DEG01, DEG10, DEG11, Degree, GaussianRational,
                   Generator, coord, field, fjet, pairjet, param, parity,
                   trig)
from .expr import GradedExpr, gexp, scalar
from .derivations import (bracket, superspace_operators,
                          verify_jacobi, verify_structure_constants)
from .superfield import (closure_report, split_components,
                         variation_derivation, variation_table)
from .potential import (FunctionSymbol, parse_potential, potential_components,
                        series_pair)
from .action import (auxiliary_solution, berezin_layer, eliminate_auxiliary,
                     lagrangian, lagrangian_audit)
from .variational import (current_comparison, divergence_split,
                          euler_lagrange, invariance_report, noether,
                          reduce_onshell, solved_forms,
                          table_comparison_report)
from .dmodule import (MatrixOp, WeylOp, canonical_matrices, dmodule_report,
                      matrices_from_tables, printed_matrices)
from .sim import FieldState, SimConfig, Trajectory, init_profile, run, step

__all__ = [
    "DEG00", "DEG01", "DEG10", "DEG11", "Degree", "FieldState",
    "FunctionSymbol", "GaussianRational", "Generator", "GradedExpr",
    "MatrixOp", "SimConfig", "Trajectory", "WeylOp", "auxiliary_solution",
    "berezin_layer", "bracket", "canonical_matrices", "closure_report",
    "coord", "current_comparison", "divergence_split", "dmodule_report",
    "eliminate_auxiliary", "euler_lagrange", "field", "fjet", "gexp",
    "init_profile", "invariance_report", "lagrangian", "lagrangian_audit",
    "matrices_from_tables", "noether", "pairjet", "param", "parity",
    "parse_potential", "potential_components", "printed_matrices",
    "reduce_onshell", "run", "scalar", "series_pair", "solved_forms",
    "split_components", "step", "superspace_operators",
    "table_comparison_report", "trig", "variation_derivation",
    "variation_table", "verify_jacobi", "verify_structure_constants",
]

__version__ = "0.1.0"
