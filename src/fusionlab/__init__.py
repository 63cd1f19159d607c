"""fusionlab: fusion systems of finite groups at desk scale.

Core layers:

* ``groups``      -- Cayley-table groups, subgroup lattices, isomorphism,
                     involvement (section) testing.
* ``pgroups``     -- Thompson subgroup J(S) and the characteristic
                     subgroups A(S), B(S).
* ``fusion``      -- fusion systems, subgroup classification (centric /
                     radical / essential), axiom checking, Alperin
                     decomposition.
* ``subsystems``  -- normalizer / centralizer / quotient / generated
                     subsystems, normality in F, O_p(F), constrained models.
* ``hfree``       -- H-freeness of groups and fusion systems, Qd(p).
* ``stellmacher`` -- the characteristic subgroup W(S) computed relative to
                     an explicit candidate family, both constructions.
* ``theorems``    -- verification harnesses for the normality and normal
                     p-complement theorems.
"""

from .groups import (
    FiniteGroup,
    GroupMorphism,
    Subgroup,
    aut_generators,
    build_group,
    is_involved,
    is_isomorphic,
    o_p,
    o_p_prime,
    quotient_group,
    sylow,
)
from .pgroups import ThompsonData, is_characteristic, thompson_data
from .fusion import (
    AlperinDecomposition,
    FusionSystem,
    SubgroupProfile,
    alperin_decompose,
    classify_subgroup,
    essential_subgroups,
    hom_set,
    n_phi,
    realize_fusion,
    verify_axioms,
)
from .subsystems import (
    centralizer_like_system,
    generated_system,
    is_normal_in_F,
    model_group,
    normalizer_system,
    o_p_of_F,
    quotient_system,
    straighten_chain,
)
from .hfree import (
    HFreeReport,
    is_fusion_H_free,
    is_group_H_free,
    qd_group,
    remark67_check,
    sigma3_involvement_check,
)
from .stellmacher import (
    CandidateFamily,
    FamilyMember,
    WComputation,
    admit_member,
    canonical_family,
    compute_W_iterative,
    compute_W_oneshot,
    functor_checks,
)
from .theorems import (
    TheoremReport,
    frobenius_check,
    has_normal_p_complement,
    thompson_group_check,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
)
from .catalog import catalog_group, validate_catalog

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
