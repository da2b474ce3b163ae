"""Exact computer algebra for braided tensor rings on group-graded modules.

Braid-group actions on tuples and tensors, the averaging projector onto
braid-invariant tensors and its ring structure, Frobenius-algebra and
WDVV verification, and the unfolding pipeline that produces the order-two
orbifold Frobenius manifolds of the one-variable simple singularities.
"""

from .groups import (
    FiniteGroup,
    conjugacy_classes,
    cyclic_group,
    group_from_table,
    symmetric_group,
    trivial_group,
)
from .poly import MultiPoly
from .groupoid import (
    Arrow,
    Component,
    braid_gen_action,
    compose_arrows,
    diagonal_g_action,
    enumerate_component,
    g_degree,
    gen_arrow,
    inverse_arrow,
    reflect_arrow,
    reflect_tuple,
)
from .modules import (
    GradedModule,
    Tensor,
    arrow_act,
    braid_act,
    diagonal_act,
    dual_module,
    graded_module,
    invariants_basis,
    untwisted_basis,
    validate_module,
    z2_decompose,
)
from .braided import (
    BraidedSeries,
    br_basis,
    braidize,
    circ_product,
    form_from_poly,
    is_braided,
    pair,
    poly_from_form,
    pullback_series,
    restrict_invariants,
    restrict_untwisted,
    unit_series,
)
from .frobenius import (
    FmData,
    GFrobeniusAlgebra,
    Potential,
    assemble_z2,
    check_gfa,
    check_metric,
    check_pre_gfm,
    gfa_from_cubic,
    mult_from_potential,
    subalgebras,
    wdvv_check,
)
from .singularity import (
    UnfoldingChart,
    flat_coordinates,
    flat_metric,
    jacobi_multiply,
    jacobi_residue,
    milnor_ring,
    potential_A,
    potential_B,
    potential_D,
    potential_D_metric,
    z2_frobenius_algebra,
    z2_frobenius_manifold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
