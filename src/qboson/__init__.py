"""Verification engine for the deformed boson Hopf algebra and its
quantum-double R-matrix."""

from .fockrep import FockRep, Window, build_rep, casimir, check_relation, classical_limit_residual
from .hopfops import GenWord, HopfFamily, counit, antipode_op, qpow, word
from .qscalars import DeformParams, ParameterError, half_index_product, q_number, q_power
from .report import IdentityReport, dump_matrix, load_matrix
from .rmatrix import RSpec, build_r
from .symalg import multiply

__all__ = [
    "DeformParams", "ParameterError", "q_number",
    "half_index_product", "q_power",
    "FockRep", "Window", "build_rep", "check_relation", "casimir",
    "classical_limit_residual",
    "HopfFamily", "GenWord", "word", "qpow", "counit", "antipode_op",
    "multiply",
    "RSpec", "build_r",
    "IdentityReport", "dump_matrix", "load_matrix",
]

__version__ = "0.1.0"
