"""Desk-scale experiments on Dirichlet improvability, lattice orbits of the
diagonal flow, and the weight-space identities behind them."""

from .curve import (CentralizerElement, GenericityVerdict, MatrixPolyCurve,
                    affine_rank, genericity_test, inverse_shift, normalizer)
from .dirichlet import (DirichletQuery, ScanTable, correspondence_basis,
                        correspondence_check, correspondence_row, first_witnesses,
                        improvability_scan, solvable)
from .errors import (DegenerateInputError, DomainError, HypothesisViolationError,
                     InternalIdentityError, InvariantError, OrientationError,
                     SingularMatrixError, UnsupportedSizeError)
from .flow import (GroupElement, Sl2Copy, a_diag, a_scale, conj_by_E, dani_vector,
                   orbit_point, orbit_points, sl2_copy, sl2_image, u_embed, z_embed)
from .lattice import (LatticeBasis, ShortVectorResult, count_in_box, in_kmu,
                      in_mahler_compact, reduce, shortest_supnorm)
from .reptheory import (Representation, WeightDecomposition, adjoint,
                        constrained_subspace, exterior, invariance_subspace, lie_image,
                        obstruction_subspace, project, rep_image, upper_block,
                        verify_q0_transport, verify_qplus_nonvanish, weight_split)
from .rng import Sampler, counter_bits, counter_uniform, counter_uniforms
from .stats import (Observable, ObservableRecord, kmu_fraction, kmu_indicator, lambda1,
                    nondivergence_profile, siegel_average, siegel_count, w_invariance_gap)

__version__ = "0.1.0"

__all__ = [
    "CentralizerElement", "GenericityVerdict", "MatrixPolyCurve", "affine_rank",
    "genericity_test", "inverse_shift", "normalizer",
    "DirichletQuery", "ScanTable", "correspondence_basis", "correspondence_check",
    "correspondence_row", "first_witnesses", "improvability_scan", "solvable",
    "DegenerateInputError", "DomainError", "HypothesisViolationError",
    "InternalIdentityError", "InvariantError", "OrientationError",
    "SingularMatrixError", "UnsupportedSizeError",
    "GroupElement", "Sl2Copy", "a_diag", "a_scale", "conj_by_E", "dani_vector",
    "orbit_point", "orbit_points", "sl2_copy", "sl2_image", "u_embed", "z_embed",
    "LatticeBasis", "ShortVectorResult", "count_in_box", "in_kmu",
    "in_mahler_compact", "reduce", "shortest_supnorm",
    "Representation", "WeightDecomposition", "adjoint", "constrained_subspace",
    "exterior", "invariance_subspace", "lie_image",
    "obstruction_subspace", "project", "rep_image", "upper_block",
    "verify_q0_transport", "verify_qplus_nonvanish", "weight_split",
    "Sampler", "counter_bits", "counter_uniform", "counter_uniforms",
    "Observable", "ObservableRecord", "kmu_fraction",
    "kmu_indicator", "lambda1", "nondivergence_profile", "siegel_average",
    "siegel_count", "w_invariance_gap",
    "__version__",
]
