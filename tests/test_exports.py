"""The public names of the package, pinned so that each addition or removal
shows in review."""

import krl

EXPORTS = [
    "AbstractKrivineStructure", "AdjunctionData", "ChangedAlgebra", "CheckResult",
    "ClosedPart", "DensityCertificate", "ExplicitLattice", "FiniteLattice",
    "FunctorImageAKS", "FunctorImageIA", "ImplicativeAlgebra", "ImplicativeStructure",
    "InteriorOperator", "MorphismSpec", "PowersetLattice", "Report", "SpecDocument",
    "Workspace", "al_approx", "app_sets", "bar_closure", "change_implication",
    "check_adjunction", "check_adjunction_instance", "check_applicative",
    "check_comp_dense", "closure_from_interior", "combinator_cc", "combinator_i",
    "combinator_k", "combinator_nu", "combinator_s", "compose", "composite_AK_check",
    "composite_KA_check", "density_certificates", "document_for", "emit_spec",
    "functor_A_mor", "functor_A_obj", "functor_K_mor", "functor_K_obj", "hat_closure",
    "identity_morphism", "imp_sets", "mine_aks", "parse_spec", "perp_left",
    "perp_right", "separator_closure", "spec_preorder", "theta", "theta_inv",
    "transport_density_A", "transport_density_K", "two_cell_leq", "upward_closure",
    "validate_aks", "validate_algebra", "validate_interior", "validate_lattice",
    "validate_structure", "verify_certificate",
]


def test_the_export_list_is_pinned():
    assert sorted(krl.__all__) == EXPORTS
