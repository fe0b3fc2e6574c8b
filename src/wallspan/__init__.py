"""wallspan: a verification lab for the projective span of Wall manifolds Q(m, n).

The package checks, from several independent directions, that Q(m, n)
admits exactly 2*nu(n+1) + m + 1 linearly independent tangent line fields:

* `invariants` -- the exact closed forms and classical bounds;
* `clifford` -- exact construction and verification of the anticommuting
  skew-Hermitian automorphisms of C^(n+1) behind the lower bound;
* `fields` -- numerical evaluation of the quasi-invariant vector fields on
  CP^n x S^m x S^1 (tangency, sign tables, linear independence);
* `f2cohomology` -- the mod-2 cohomology ring of Q(m, n) on its explicit
  basis and the virtual Stiefel-Whitney obstruction giving upper bounds;
* `harness` / `acceptance` / `cli` -- deterministic campaigns, the
  acceptance suite and the command-line front end.
"""

from .acceptance import AcceptanceResult, CriterionResult, run_acceptance
from .clifford import (
    CliffordFamily,
    FamilyReport,
    GaussMatrix,
    build_family,
    predicted_sign,
    verify_family,
)
from .f2cohomology import (
    GradedF2Poly,
    WallRing,
    sw_upper_bound,
    total_sw_wall,
    wall_presentation,
)
from .fields import InvolutionKind, expected_quasi_sign
from .harness import CampaignConfig, CampaignResult, run_campaign
from .invariants import (
    WallParams,
    nu,
    pspan_wall,
    sspan_cpn,
    upper_bound_fibration,
)

__version__ = "0.1.0"
