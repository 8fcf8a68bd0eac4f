"""Exact Z2 x Z2 graded-algebra engine with a field-theory toolkit.

Layers, bottom up:
  core / expr        graded polynomial ring with exact scalars
  derivations        graded derivations, superspace operators, their algebra
  superfield         component expansion, variation tables, closure
  potential          prepotential pairs, closed forms and series
  action             superspace action to component Lagrangian pipeline
  variational        Euler-Lagrange operators and conserved currents
  dmodule            matrix realization on the component multiplet
  sim                leapfrog integrator for the bosonic sector
  cli                command-line entry points

Layers load on first use: `import z22field` loads none, and each public
name loads its own layer when first read, so only the solver's need numpy.
"""

from importlib import import_module

# the layer that defines each public name
_LAYERS = {
    "core": ("DEG00", "DEG01", "DEG10", "DEG11", "Degree", "GaussianRational",
             "Generator", "coord", "field", "fjet", "pairjet", "param",
             "parity", "trig"),
    "expr": ("GradedExpr", "gexp", "scalar"),
    "derivations": ("superspace_operators", "verify_jacobi",
                    "verify_structure_constants"),
    "superfield": ("closure_report", "split_components",
                   "variation_derivation", "variation_table"),
    "potential": ("FunctionSymbol", "parse_potential", "potential_components",
                  "series_pair"),
    "action": ("auxiliary_solution", "berezin_layer", "eliminate_auxiliary",
               "lagrangian", "lagrangian_audit"),
    "variational": ("current_comparison", "divergence_split",
                    "euler_lagrange", "invariance_report", "noether",
                    "reduce_onshell", "solved_forms",
                    "table_comparison_report"),
    "dmodule": ("canonical_matrices", "dmodule_report",
                "matrices_from_tables", "printed_matrices"),
    "sim": ("FieldState", "SimConfig", "Trajectory", "init_profile", "run",
            "step"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
