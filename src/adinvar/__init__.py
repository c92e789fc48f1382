"""Exact-arithmetic workbench for metric Lie algebras: double extensions,
naturally reductive structures, their geometry and automorphisms."""

from .core import (AlgebraError, BilinearForm, Check, LieAlgebra,
                   SeriesResult, Subspace, ad_invariant, center, check_jacobi,
                   derived_series, invariant_forms,
                   is_subalgebra, kernel_of, killing_form,
                   lower_central_series, orthogonal_complement,
                   restrict_to_subalgebra, skew_witnesses, totally_isotropic)
from .extension import (DoubleExtension, ExtensionError, GdAlgebra,
                        KostantError, KostantResult, Representation,
                        SplitResult, build_gd, canonical_connection,
                        double_extend, kostant_form, reductive_split)
from .geometry import (GeometryError, Tensor,
                       bi_invariant_connection_check,
                       bi_invariant_curvature_check, check_pair_symmetry,
                       curvature, curvature_gd, geodesic_one_param,
                       levi_civita, levi_civita_gd, plane_discriminant, ricci,
                       ricci_gd_closed, ricci_operator, sectional,
                       sectional_gd_closed, totally_geodesic)
from .homstructure import (AsReport, HomStructure, build_hom_structure,
                           nilmanifold_t_formula, t_tensor, verify_as)
from .derivations import (MatrixLieAlgebra, SoAut, derivation_algebra,
                          equivalence_check, induced_so_aut_pair,
                          inner_derivations, intertwiners_skew, profile,
                          skew_derivations, skew_part, so_aut)
from .series import (HeisenbergReport, SeriesError, StepReport,
                     heisenberg_recognizer, predict_nilpotent_step,
                     predict_solvable_step)
from .corpus import CorpusEntry, corpus_build, corpus_list

__all__ = [name for name in dir() if not name.startswith("_")]
