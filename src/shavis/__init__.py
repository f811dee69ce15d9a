"""Certified lower bounds on visible subgroups of Shafarevich-Tate groups.

Given a pair of congruent elliptic curves over Q, this package checks the
hypotheses of the visibility theorems (quadratic twists, Kummer layers,
p-adic Lie towers) with exact arithmetic and emits machine-checkable
certificates asserting p^(rank gap) lower bounds on the visible subgroup of
Sha over the relevant extension. Mordell-Weil ranks are ingested, never
proved; every certificate records the provenance of the ranks it consumed.
"""

from .curves import Isomorphism, WeierstrassModel, invariants, minimal_model, quadratic_twist
from .localdata import (
    CurveFacts,
    LocalReductionData,
    conductor,
    curve_facts,
    residual_conductor,
    tate_algorithm,
)
from .hecke import ApRecord, a_q
from .congruence import (
    CongruenceCertificate,
    IrreducibilityVerdict,
    congruence_bound,
    irreducible_mod_p,
    verify_congruence,
)
from .fields import (
    NumberFieldDescriptor,
    TowerDescriptor,
    check_ramification_condition,
    cyclotomic_field,
    decomposition_dimension,
    kummer_layer,
    quadratic_field,
    splitting_data,
)
from .dataio import CurveRecord, RankRecord, RankSources, load_dataset, point_search, rank_over
from .visibility import (
    HypothesisVerdict,
    VisibilityCertificate,
    VisibilityScenario,
    verify_scenario,
)
from .scenario import load_bundled_scenario, load_scenario, scenario_from_dict

__version__ = "0.1.0"
