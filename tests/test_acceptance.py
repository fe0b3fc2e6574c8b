"""The acceptance suite: one test per criterion, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
`wallspan accept` drives the same checks from the command line.
"""

import copy

import numpy as np
import pytest

from clifford_reference import duplicate_word
from wallspan import acceptance as acc
from wallspan import fields
from wallspan.acceptance import run_acceptance
from wallspan.cli import main
from wallspan.clifford import CliffordFamily, build_family

CRITERIA = {
    1: "Clifford family exactness",
    2: "quasi-invariance sign tables",
    3: "pointwise linear independence",
    4: "tangency and well-definedness",
    5: "mod-2 upper bound for n even",
    6: "stable-span table regression",
    7: "formula and bound consistency",
}


@pytest.fixture(scope="session")
def acceptance():
    return run_acceptance()


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(acceptance, cid):
    result = next(c for c in acceptance.criteria if c.cid == cid)
    print(result.line())
    assert result.title == CRITERIA[cid]
    assert result.passed, result.details


def test_all_criteria_present_and_passed(acceptance):
    assert [c.cid for c in acceptance.criteria] == sorted(CRITERIA)
    assert acceptance.passed
    assert acceptance.campaign.passed


def test_accept_fails_small_representative_dependence(monkeypatch, capsys):
    # a 1e-6 conj(z_0) term in one field breaks representative independence
    # far above the pinned tolerances; no flag can loosen them to let it pass
    evaluate = fields.evaluate_batch

    def with_extra_term(points, family):
        f = evaluate(points, family)
        w = f.w.copy()
        w[:, -1, 0] += 1e-6 * np.conj(points.z[:, 0])
        return fields.FieldBatch(w, f.u, f.mu)

    monkeypatch.setattr(fields, "evaluate_batch", with_extra_term)
    assert main(["accept"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] criterion 4" in out and "acceptance: FAIL" in out


def test_sspan_table_checks_its_nu_column(monkeypatch):
    assert acc.criterion_sspan_table().passed
    wrong = tuple((8, 2, 6) if row[0] == 8 else row for row in acc.SSPAN_TABLE)  # nu(8) = 3
    monkeypatch.setattr(acc, "SSPAN_TABLE", wrong)
    result = acc.criterion_sspan_table()
    assert not result.passed
    assert result.details == "failures: ['n+1=8: nu 3 != 2']"


def test_clifford_criterion_reads_the_sections_verdict(monkeypatch):
    # every identity holds and every count is right, but the n = 2 section's verdict says no
    section = acc.clifford_section
    monkeypatch.setattr(acc, "clifford_section", lambda family: {**section(family), "passed": family.n != 2})
    result = acc.criterion_clifford_exact()
    assert not result.passed
    assert result.details == "failures: ['n=2: []'] (budget 1.0s)"


def test_consistency_criterion_reads_each_cases_bound_check(acceptance):
    # the bound half reads the case's sw_bound_not_below_pspan check; here the
    # numbers still agree, so only the check can fail the criterion
    report = copy.deepcopy(acceptance.campaign.report)
    case = report["cases"][5]
    assert case["cohomology"]["swUpperBound"] >= case["formulas"]["pspan"]
    next(c for c in case["cohomology"]["checks"] if c["name"] == "sw_bound_not_below_pspan")["passed"] = False
    result = acc.criterion_consistency(acceptance.campaign._replace(report=report))
    assert not result.passed
    assert result.details == f"failures: ['({case['m']},{case['n']}) obstruction bound below pspan']"


def test_clifford_criterion_names_each_broken_family(monkeypatch):
    # at n = 1 A_2 is a copy of A_1; at n = 3 the family is one generator short
    full = build_family(3)
    families = {
        1: duplicate_word(build_family(1), 1, 2),
        3: CliffordFamily(3, full.words[:-1], full.predicted_signs[:-1]),
    }
    monkeypatch.setattr(acc, "build_family", lambda n: families.get(n) or build_family(n))
    result = acc.criterion_clifford_exact()
    assert not result.passed
    assert result.details == (
        "failures: [\"n=1: ['anticommute[1,2]']\", 'n=3: 4 matrices, expected 5'] (budget 1.0s)"
    )
