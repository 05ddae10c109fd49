"""Exact jet-level classification engine for singular planar holomorphic
vector fields admitting Levi-nonflat real integral hypersurfaces."""

from .backend import BACKEND, GaussRational
from .algebra import Series, gauss
from .grading import WeightSystem, weighted_order, component, is_homogeneous
from .field import VectorField, JetMap, apply_field, bracket, jet_inverse, pushforward, flow
from .hypersurface import RealHypersurface, validate, tangency_residual, transport
from .normalform import (LeadingData, ResonanceReport, NormalFormResult, leading_data,
                         classify_case, normalize, normalize_ord0, prenormalize,
                         normalize_generic, normalize_alpha_zero, normalize_b_zero,
                         majorant_certificate)
from .manifold import realize_generic, realize_alpha_zero, realize_b_zero, realize_nf7
from .centralizer import jet_centralizer, symmetry_support_check, divergence_probe

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "GaussRational", "Series", "gauss",
    "WeightSystem", "weighted_order", "component", "is_homogeneous",
    "VectorField", "JetMap", "apply_field", "bracket", "jet_inverse", "pushforward", "flow",
    "RealHypersurface", "validate", "tangency_residual", "transport",
    "LeadingData", "ResonanceReport", "NormalFormResult", "leading_data", "classify_case",
    "normalize", "normalize_ord0", "prenormalize", "normalize_generic",
    "normalize_alpha_zero", "normalize_b_zero", "majorant_certificate",
    "realize_generic", "realize_alpha_zero", "realize_b_zero", "realize_nf7",
    "jet_centralizer", "symmetry_support_check", "divergence_probe",
]
