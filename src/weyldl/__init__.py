"""Exact certificates for the affineness criterion on twisted Weyl classes."""

from .exactnum import QuadExt
from .rootdata import (
    RootSystem,
    Twist,
    build_root_system,
    build_twist,
)
from .weyl import WeylElt, WeylGroup
from .conjugacy import (
    DeltaClass,
    class_list,
    class_of,
    shift_closure,
    supp_delta,
)
from .criterion import (
    Certificate,
    build_forward_system,
    build_star_system,
    certify_min_element,
    check_certificate,
    feasible,
    minimal_q,
)
from .lifting import (
    combine_cyclic_factors,
    combine_orthogonal_factors,
    constructive_certificate,
    extend_via_parabolic_step,
    lift_to_full,
)
from .catalog import load_case_records
from .casetables import verify_all, verify_case

__all__ = [
    "QuadExt",
    "RootSystem",
    "Twist",
    "build_root_system",
    "build_twist",
    "WeylGroup",
    "WeylElt",
    "DeltaClass",
    "class_list",
    "class_of",
    "shift_closure",
    "supp_delta",
    "Certificate",
    "build_forward_system",
    "build_star_system",
    "feasible",
    "check_certificate",
    "certify_min_element",
    "minimal_q",
    "lift_to_full",
    "combine_orthogonal_factors",
    "combine_cyclic_factors",
    "extend_via_parabolic_step",
    "constructive_certificate",
    "load_case_records",
    "verify_case",
    "verify_all",
]

__version__ = "0.1.0"
