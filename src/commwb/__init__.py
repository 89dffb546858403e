"""Workbench for commutator calculus over finite pointed algebras.

Algebras are given by operation tables; everything downstream is exact
finite computation.  The layers, bottom up:

* :mod:`commwb.core` — algebras, homs, subuniverses, congruences,
  products, pullbacks, closure generation.
* :mod:`commwb.terms` — term trees, parsing, vectorized evaluation.
* :mod:`commwb.varieties` — equational profiles (groups, Heyting
  semilattices, loops), identity verification, and the built-in catalogue
  of named algebras, diagrams and cospans.
* :mod:`commwb._kernel_search` — the bounded kernel-word search behind
  the word-oracle strategy.
* :mod:`commwb.commutators` — cooperators, binary/ternary Higgins
  commutators, Smith commutators, weighted commutation.
* :mod:`commwb.conditions` — instance checkers for the centralisation
  conditions and the bundled worked examples.
* :mod:`commwb.sweeps` — exhaustive enumeration of subgroups and
  congruences for batch verification.
* :mod:`commwb.fileio` / :mod:`commwb.cli` — JSON formats, the input
  registry, and the ``commwb`` command.
"""

from .commutators import (CommutatorReport, CooperatorOutcome,
                          WeightedCospan, commute_over, cooperator,
                          higgins_binary, higgins_ternary, is_w_normal,
                          normalise, smith, w_normal_closure)
from .conditions import (AdmissibleDiagram, AdmissibleOutcome,
                         ConditionVerdict, admissible,
                         check_reflection_instance, check_sh_instance,
                         check_ssh_instance, check_w_instance, groups_phi,
                         kernel_images, run_paper_examples)
from .core import (Congruence, FinAlgebra, Hom, PointObject, Signature,
                   Subuniverse, ValidationError, check_hom,
                   generate_congruence, generate_subuniverse, identity_hom,
                   image_sub, kernel_sub, product, pullback)
from .varieties import (VarietyProfile, builtin_library, cyclic_group,
                        dihedral_group, symmetric_group, verify_identities)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleDiagram", "AdmissibleOutcome", "CommutatorReport",
    "ConditionVerdict", "Congruence", "CooperatorOutcome", "FinAlgebra",
    "Hom", "PointObject", "Signature", "Subuniverse", "ValidationError",
    "VarietyProfile", "WeightedCospan", "admissible", "builtin_library",
    "check_hom", "check_reflection_instance", "check_sh_instance",
    "check_ssh_instance", "check_w_instance", "commute_over", "cooperator",
    "cyclic_group", "dihedral_group", "generate_congruence",
    "generate_subuniverse", "groups_phi", "higgins_binary",
    "higgins_ternary", "identity_hom", "image_sub", "is_w_normal",
    "kernel_images", "kernel_sub", "normalise", "product", "pullback",
    "run_paper_examples", "smith", "symmetric_group", "verify_identities",
    "w_normal_closure",
]
