"""Computation and verification toolkit for conformal Hessians on round spheres.

Subpackages by theme:

* :mod:`spherehess.ktypes` — dominant weights, restriction branching, and the
  two-parameter mode families carried by trace-free symmetric tensors.
* :mod:`spherehess.spectrum` — Casimir bookkeeping, the two-term eigenvalue
  recursion on the mode lattice, its product closed form, and the sign
  classification of the resulting quadratic forms.
* :mod:`spherehess.greens` — radial Green's functions of the scalar
  intertwining operators on odd spheres, their exact tail integrals, regular
  parts, and regularized traces.
* :mod:`spherehess.symbols` — leading-symbol quadratic forms of the
  determinant and zeta functionals, exact gamma prefactors, and the extremal
  classification chain.
* :mod:`spherehess.qcurv` — exact rational symbol calculus for the
  linearized curvature operators and the Hessian symbol identity.
* :mod:`spherehess.confgroup` — the Moebius group acting on tensor fields,
  invariant pairings on quadrature grids, and the chart-level conformal
  Killing operator with its covariance checks.
* :mod:`spherehess.cli` — the ``spherehess`` command-line interface.

The public names below are re-exported lazily (PEP 562): ``import
spherehess`` imports no submodule, and the first read of a name imports the
submodule that defines it.  So a program pays for numpy, the one runtime
dependency, only when it reads a name whose module or routine needs it.
"""

import importlib

__version__ = "1.0.0"

# The public names of each submodule, re-exported by the package.
_EXPORTS = {
    "errors": (
        "Degenerate", "DomainError", "FitUnstable", "InconsistentSystem",
        "ParityError", "PreconditionViolation", "QuadratureFailure",
        "RankMismatch", "SphereHessError", "UnsupportedSigma", "ZeroCovector",
    ),
    "exact": ("ExactConst", "gamma_half_integer", "rising", "sphere_volume"),
    "ktypes": (
        "DominantWeight", "KType", "branches", "bundle_ktypes_bruteforce",
        "bundle_weights", "is_dominant",
    ),
    "spectrum": (
        "Classification", "HessianKind", "SpectrumTable", "classify_hessian",
        "closed_form_table", "kappa", "kappa_inner_product",
        "recursion_matches_closed_form", "spectrum_generate",
        "spectrum_generate3", "t0_eigenvalue",
    ),
    "greens": (
        "RadialGreen", "RegularPartResult", "TauTailIntegral", "TraceKind",
        "chart_radius", "green_D2", "green_L", "green_L2", "kv_trace_D2",
        "kv_trace_L2", "ode_residual_L", "ode_residual_L2", "regular_part",
        "spectral_convention_factor", "spectral_trace_reference",
        "tau_tail_exact", "tau_tail_quadrature", "trace_from_pipeline",
        "trace_sign_expected",
    ),
    "symbols": (
        "ExtremalStatement", "FormDefiniteness", "Functional", "PrefactorMode",
        "QuadFormCoeffs", "bracket_D2", "bracket_L", "bracket_definiteness",
        "extremal_classification", "gamma_prefactor", "gamma_prefactor_exact",
        "zeta0_prefactor_richardson",
    ),
    "qcurv": (
        "ahlfors_symbol", "lin_obstruction_symbol", "lin_ricci_symbol",
        "lin_scalar_symbol", "lin_schouten_symbol", "project_tt",
        "q_hessian_expected", "q_hessian_symbol",
    ),
    "confgroup": (
        "MoebiusElement", "RepWeight", "SphereGrid", "TensorField", "ahlfors_chart",
        "check_ahlfors_covariance", "check_pairing_invariance", "compose",
        "moebius_boost", "moebius_rotation", "pairing", "sphere_conformal_fields",
        "sphere_grid", "u_action",
    ),
}

# Public name -> the submodule that defines it.
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items()
                 for name in names}

__all__ = sorted([*_EXPORTS, *_SUBMODULE_OF])


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that defines ``name``."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
