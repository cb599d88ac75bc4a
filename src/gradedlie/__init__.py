"""Exact symbolic workbench for weighted Lie algebroids over Q.

Graded-commutative algebras with bi-weighted generators, derivations with
square-zero checks, Chevalley-Eilenberg differentials from structure tables,
weight-module decompositions, superconnection components with gauge
transformations, and desk-scale exact cohomology.
"""

from .algebra import (AlgebraError, BiWeight, Element, Generator,
                      GeneratorTable, monomial_str)
from .algebroid import (AlgebroidSpec, SpecError, StructureReport,
                        check_structure_equations, degree_zero_restriction,
                        tower_truncation)
from .cohomology import CapClosureError, FiniteComplex, betti, build_complex, rank
from .constructions import (EXAMPLES, abelian_lie_algebra, adjoint_instance,
                            aff1, algebroid_prolongation,
                            cotangent_prolongation, e3_chart, e7_instance, sl2,
                            tangent_algebroid, tangent_graded_bundle,
                            weighted_lie_algebra)
from .derivations import (Derivation, DerivationError, HomologicalReport,
                          apply, graded_commutator, is_homological,
                          make_derivation)
from .dsl import (DslError, SpecDocument, document_from_spec, parse,
                  parse_expression, print_document, to_algebroid_spec)
from .superconnection import (CascadeReport, GaugeError, GaugeTransformation,
                              SuperconnectionComponents, apply_gauge,
                              compose_gauges, extract_components,
                              flatness_cascade, split_by_y_count)
from .weight_modules import BasisSizeError, Monomials, dim_w, homogenization_projector

__version__ = "0.1.0"
