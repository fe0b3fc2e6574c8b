"""The acceptance suite: seven criteria, each with pinned tolerances.

The criteria are fixed contracts, not tunables: no option sets the tolerance
constants of `fields` or the grid that `wallspan accept` runs.

1. exact Clifford identities for n = 0..16, under 1 second;
2. quasi-invariance sign tables over the default grid, within INVARIANCE_TOL;
3. rank delta at every sampled point (relative SVD threshold RANK_REL_TOL),
   decided by the Gram matrix's bound with the SVD only as the fallback,
   under 10 seconds of independence work for the grid;
4. tangency residuals <= TANGENCY_TOL and representative independence for
   the 8th roots of unity;
5. the mod-2 obstruction rules out m+2 line fields for n in {2, 4},
   m in {1..4}, under 30 seconds;
6. regression of the nu and stable-span table for CP^n, exact;
7. closed form == fibration bound on m in 1..10, n in 0..32, and the
   obstruction bound is never below the closed form on the default grid.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .clifford import build_family
from .f2cohomology import VirtualSwSearch
from .harness import CampaignConfig, CampaignResult, clifford_section, run_campaign
from .invariants import WallParams, nu, pspan_wall, sspan_cpn, upper_bound_fibration

# (n+1, nu(n+1), sspan CP^n) regression rows for criterion 6.
SSPAN_TABLE = (
    (2, 1, 2),
    (4, 2, 4),
    (6, 1, 2),
    (8, 3, 6),
    (10, 1, 2),
    (12, 2, 4),
    (14, 1, 2),
    (28, 2, 4),
    (30, 1, 2),
    (32, 5, 10),
    (34, 1, 2),
    (36, 2, 4),
    (38, 1, 2),
    (1024, 10, 20),
)

CLIFFORD_N_MAX = 16
CLIFFORD_BUDGET_S = 1.0
INDEPENDENCE_BUDGET_S = 10.0
RULE_OUT_BUDGET_S = 30.0
RULE_OUT_M_VALUES = (1, 2, 3, 4)
RULE_OUT_N_VALUES = (2, 4)


class CriterionResult(NamedTuple):
    cid: int
    title: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        """One text line; the elapsed time goes here, not into the deterministic details."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid}: {self.title} -- {self.details} ({self.elapsed:.3f}s)"


class AcceptanceResult(NamedTuple):
    criteria: tuple[CriterionResult, ...]
    campaign: CampaignResult

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)


def criterion_clifford_exact() -> CriterionResult:
    start = time.perf_counter()
    failures = []
    for n in range(CLIFFORD_N_MAX + 1):
        section = clifford_section(build_family(n))  # not clifford_for: the budget times a fresh build
        if not section["passed"]:  # the section's verdict; countOk and failures only word the details
            count = f"{section['matrixCount']} matrices, expected {section['expectedCount']}"
            failures.append(f"n={n}: {section['failures'] if section['countOk'] else count}")
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < CLIFFORD_BUDGET_S
    details = (
        f"n = 0..{CLIFFORD_N_MAX}, exact arithmetic"
        if passed
        else f"failures: {failures or 'none'} (budget {CLIFFORD_BUDGET_S}s)"
    )
    return CriterionResult(1, "Clifford family exactness", passed, details, elapsed)


def criterion_sign_tables(campaign: CampaignResult) -> CriterionResult:
    bad = []
    for case in campaign.report["cases"]:
        for entry in case["signs"]["entries"]:
            if not entry["passed"]:
                bad.append(f"({case['m']},{case['n']}) j={entry['j']} {entry['kind']}")
    elapsed = campaign.timings.signs
    passed = not bad
    details = (
        "all observed signs constant and as predicted"
        if passed
        else f"mismatches: {bad[:8]}{'...' if len(bad) > 8 else ''}"
    )
    return CriterionResult(2, "quasi-invariance sign tables", passed, details, elapsed)


def criterion_independence(campaign: CampaignResult) -> CriterionResult:
    bad = [
        f"({c['m']},{c['n']})"
        for c in campaign.report["cases"]
        if not c["independence"]["rankOk"]
    ]
    elapsed = campaign.timings.independence
    passed = not bad and elapsed < INDEPENDENCE_BUDGET_S
    if passed:  # full rank everywhere, so every statistic is finite
        worst = min(c["independence"]["minOfMinRelativeSv"] for c in campaign.report["cases"])
        details = f"rank delta everywhere, min relative sv {worst:.3e}"
    else:
        details = f"rank failures: {bad or 'none'} (budget {INDEPENDENCE_BUDGET_S}s)"
    return CriterionResult(3, "pointwise linear independence", passed, details, elapsed)


def criterion_tangency(campaign: CampaignResult) -> CriterionResult:
    bad = []
    for case in campaign.report["cases"]:
        if not case["tangency"]["passed"]:
            bad.append(f"({case['m']},{case['n']}) tangency")
        if not case["wellDefined"]["passed"]:
            bad.append(f"({case['m']},{case['n']}) representative")
    elapsed = campaign.timings.well_defined
    passed = not bad
    if passed:  # every residual is within tolerance, so every one is finite
        worst = max(
            case["tangency"][key]
            for case in campaign.report["cases"]
            for key in ("maxResidualZW", "maxResidualVU", "maxResidualLambdaMu")
        )
        details = f"max residual {worst:.3e}, 8 roots of unity pass"
    else:
        details = f"failures: {bad[:8]}"
    return CriterionResult(4, "tangency and well-definedness", passed, details, elapsed)


def criterion_rule_out_even() -> CriterionResult:
    start = time.perf_counter()
    bad = []
    for m in RULE_OUT_M_VALUES:
        for n in RULE_OUT_N_VALUES:
            if not VirtualSwSearch(WallParams(m, n)).ruled_out(m + 2):
                bad.append(f"({m},{n}) k={m + 2} not ruled out")
    elapsed = time.perf_counter() - start
    passed = not bad and elapsed < RULE_OUT_BUDGET_S
    details = (
        "pspan <= m+1 certified for m in 1..4, n in {2,4}"
        if passed
        else f"failures: {bad or 'none'} (budget {RULE_OUT_BUDGET_S}s)"
    )
    return CriterionResult(5, "mod-2 upper bound for n even", passed, details, elapsed)


def criterion_sspan_table() -> CriterionResult:
    start = time.perf_counter()
    bad = []
    for n_plus_1, nu_expected, sspan_expected in SSPAN_TABLE:
        if nu(n_plus_1) != nu_expected:
            bad.append(f"n+1={n_plus_1}: nu {nu(n_plus_1)} != {nu_expected}")
        if sspan_cpn(n_plus_1 - 1) != sspan_expected:
            bad.append(f"n+1={n_plus_1}: sspan {sspan_cpn(n_plus_1 - 1)} != {sspan_expected}")
    elapsed = time.perf_counter() - start
    passed = not bad
    details = f"{len(SSPAN_TABLE)} table rows reproduced" if passed else f"failures: {bad}"
    return CriterionResult(6, "stable-span table regression", passed, details, elapsed)


def criterion_consistency(campaign: CampaignResult) -> CriterionResult:
    start = time.perf_counter()
    bad = []
    for m in range(1, 11):
        for n in range(33):
            p = WallParams(m, n)
            if pspan_wall(p) != upper_bound_fibration(p):
                bad.append(f"({m},{n}) formula mismatch")
    for case in campaign.report["cases"]:
        checks = {c["name"]: c["passed"] for c in case["cohomology"]["checks"]}
        if not checks["sw_bound_not_below_pspan"]:
            bad.append(f"({case['m']},{case['n']}) obstruction bound below pspan")
    elapsed = time.perf_counter() - start
    passed = not bad
    details = (
        "closed form agrees with the fibration bound (m<=10, n<=32); "
        "obstruction bound never undercuts pspan on the grid"
        if passed
        else f"failures: {bad[:8]}"
    )
    return CriterionResult(7, "formula and bound consistency", passed, details, elapsed)


def run_acceptance(config: CampaignConfig | None = None) -> AcceptanceResult:
    """Run all seven criteria; criteria 2, 3, 4 and 7 share one campaign."""
    config = config or CampaignConfig()
    campaign = run_campaign(config)
    criteria = (
        criterion_clifford_exact(),
        criterion_sign_tables(campaign),
        criterion_independence(campaign),
        criterion_tangency(campaign),
        criterion_rule_out_even(),
        criterion_sspan_table(),
        criterion_consistency(campaign),
    )
    return AcceptanceResult(criteria=criteria, campaign=campaign)
