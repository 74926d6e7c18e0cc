"""Finite-model workbench for Krivine realizability.

Build, validate, and transform finite implicative algebras and abstract
Krivine structures, run the functors between them, check the adjunction
that relates them, and change implications along Alexandroff interior
operators, with every claim turned into an executable check.
"""

from types import ModuleType as _ModuleType

from .aks import (AbstractKrivineStructure, app_sets, bar_closure, hat_closure,
                  imp_sets, mine_aks, perp_left, perp_right, spec_preorder,
                  validate_aks)
from .bridge import (AdjunctionData, FunctorImageAKS, FunctorImageIA,
                     check_adjunction_instance, composite_AK_check,
                     composite_KA_check, functor_A_mor, functor_A_obj,
                     functor_K_mor, functor_K_obj, transport_density_A,
                     transport_density_K)
from .implicative import (ImplicativeAlgebra, ImplicativeStructure,
                          check_adjunction, combinator_cc, combinator_i,
                          combinator_k, combinator_nu, combinator_s,
                          separator_closure, validate_algebra, validate_structure)
from .interior import (ChangedAlgebra, ClosedPart, InteriorOperator, al_approx,
                       change_implication, closure_from_interior,
                       density_certificates, theta, theta_inv,
                       validate_interior)
from .morphism import (DensityCertificate, MorphismSpec, check_applicative,
                       check_comp_dense, compose, identity_morphism,
                       two_cell_leq, verify_certificate)
from .order import (ExplicitLattice, FiniteLattice, PowersetLattice,
                    upward_closure, validate_lattice)
from .report import CheckResult, Report
from .specfile import SpecDocument, Workspace, document_for, emit_spec, parse_spec

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
