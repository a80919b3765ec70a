"""Exact-arithmetic quiver representations: ladders of pushouts, truncation
families, self-extensions, and degeneration certificates.

The public surface mirrors the module layout:

- linalg: exact fields (Q, GF(p)), matrices, Smith normal form
- algebra: quivers, admissible relations, path bases, projectives
- rep: modules, homomorphisms, kernels/cokernels, radicals, generation
- squares: pushout/pullback squares, exactness, split tests
- ladder: the rung iteration, truncations, chessboard, ladder extensions
- selfext: projective covers, Ext^1, standard classes, seed conversions
- degen: Riedtmann-Zwara sequences and their splitting certificates
- decomp: endomorphism rings, indecomposability, isomorphism testing
- poly: exact factorization of univariate polynomials over Q and GF(p)
- zladder: the integer oracle via Smith normal form
- io / cli: file formats and the command line
"""

from .algebra import AlgebraPresentation, PathBasis, Quiver, path_basis, projective
from .decomp import (
    EndAlgebra,
    IsoReport,
    are_isomorphic,
    decompose,
    end_algebra,
    is_indecomposable,
)
from .degen import (
    DegenerationCertificate,
    RZSequence,
    check_rz,
    co_rz,
    cokernel_degeneration,
    eventual_splitting,
    make_steering_nilpotent,
    power_degeneration,
    rigid_cokernel_iso,
    rz_to_prufer,
    split_iff_split,
)
from .ladder import (
    Ladder,
    Truncation,
    build_ladder,
    chessboard,
    ladder_extension,
    ladder_seed_from_simple,
)
from .linalg import GF, QQ, Field, Mat, SNFResult, null_space, rref, smith_normal_form
from .rep import (
    ModHom,
    Rep,
    Submodule,
    annihilator_dimension,
    cokernel,
    direct_sum,
    hom_dimension,
    hom_space,
    image,
    is_faithful,
    is_generated_by,
    kernel,
    quotient,
    radical,
    socle,
    submodule_closure,
    sum_module,
    top,
)
from .selfext import (
    ExtClass,
    class_to_sequence,
    ext1,
    ext_class_of_sequence,
    is_standard,
    proj_dim_at_most_one,
    projective_cover,
    reduced_presentation_seed,
    standard_subspace,
    standard_to_ladder,
    syzygy,
)
from .squares import (
    ShortExact,
    Square,
    compose_squares,
    is_exact_square,
    is_split_epi,
    is_split_mono,
    pullback,
    pushout,
    trivial_square,
)
from .zladder import AbGroup, z_ladder

__version__ = "0.1.0"
