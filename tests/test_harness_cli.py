"""Campaign assembly, report determinism and the CLI surface."""

import hashlib
import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from clifford_reference import with_matrices
from wallspan import cli, f2cohomology, fields, harness
from wallspan.cli import main, parse_int_spec
from wallspan.clifford import build_family, verify_family
from wallspan.harness import (
    CampaignConfig,
    render_campaign_text,
    report_to_json,
    run_campaign,
    run_case,
)

SMALL = CampaignConfig(m_values=(1, 2), n_values=(0, 1), samples_per_case=5, seed=7)


# -- config --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(m_values=())
    with pytest.raises(ValueError):
        CampaignConfig(m_values=(0,))
    with pytest.raises(ValueError):
        CampaignConfig(samples_per_case=0)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        CampaignConfig(seed=-1)
    with pytest.raises(ValueError, match=r"repeated m values in \[1, 2, 1\]"):
        CampaignConfig(m_values=(1, 2, 1))
    with pytest.raises(ValueError, match=r"repeated n values in \[0, 0\]"):
        CampaignConfig(n_values=(0, 0))


def test_config_hash_sensitivity():
    assert SMALL.config_hash() == SMALL.config_hash()
    other = CampaignConfig(m_values=(1, 2), n_values=(0, 1), samples_per_case=5, seed=8)
    assert SMALL.config_hash() != other.config_hash()


# -- campaign ------------------------------------------------------------------


def test_case_record_has_all_categories():
    record, _ = run_case(1, 1, SMALL)
    for key in ("formulas", "clifford", "signs", "independence", "tangency", "wellDefined", "cohomology"):
        assert key in record
    assert record["seed"] == SMALL.seed
    assert record["configHash"] == SMALL.config_hash()
    assert record["passed"]


def test_campaign_grid_complete_and_deterministic():
    result = run_campaign(SMALL)
    cases = [(c["m"], c["n"]) for c in result.report["cases"]]
    assert cases == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert result.passed

    again = run_campaign(SMALL)
    assert report_to_json(result.report) == report_to_json(again.report)


# -- the batched checks catch broken fields ----------------------------------------


def _use_family(monkeypatch, n, matrices):
    # replaces the campaign's family at this n only; other n keep the real one
    family = with_matrices(build_family(n), matrices)
    family_for, report_for = harness.family_for, harness.family_report_for
    monkeypatch.setattr(harness, "family_for", lambda k: family if k == n else family_for(k))
    monkeypatch.setattr(
        harness, "family_report_for", lambda k: verify_family(family) if k == n else report_for(k)
    )


def test_run_case_builds_total_class_once(monkeypatch):
    # the record's w and the rule-out scan share one total_sw_wall call
    # (wrapped wherever a module holds the name)
    calls = []
    build = f2cohomology.total_sw_wall

    def counted(p):
        calls.append(p)
        return build(p)

    for module in (f2cohomology, harness):
        monkeypatch.setattr(module, "total_sw_wall", counted, raising=False)
    record, _ = run_case(2, 1, SMALL)
    assert len(calls) == 1
    assert record["cohomology"]["totalSw"] == build(calls[0]).render()


def test_duplicated_matrix_fails_rank(monkeypatch):
    a = build_family(1).matrices
    _use_family(monkeypatch, 1, (a[0], a[0], a[2]))
    record, _ = run_case(2, 1, SMALL)
    assert not record["independence"]["rankOk"]
    assert not record["passed"]


def test_hermitian_matrix_fails_sigma_sign(monkeypatch):
    a = build_family(1).matrices
    _use_family(monkeypatch, 1, (a[0].times_i(), a[1], a[2]))
    record, _ = run_case(2, 1, SMALL)
    assert not record["signs"]["allPassed"]
    bad = [(e["j"], e["kind"]) for e in record["signs"]["entries"] if not e["passed"]]
    assert (1, "sigma") in bad
    assert not record["passed"]


@pytest.mark.parametrize("conjugate,passed", [(True, False), (False, True)])
def test_non_equivariant_field_fails_roots(monkeypatch, conjugate, passed):
    # a w-term in conj(z_0) does not scale with omega, one in z_0 does
    evaluate = fields.evaluate_batch

    def with_extra_term(points, family):
        f = evaluate(points, family)
        z0 = points.z[:, 0]
        w = f.w.copy()
        w[:, -1, 0] += np.conj(z0) if conjugate else z0
        return fields.FieldBatch(w, f.u, f.mu)

    monkeypatch.setattr(fields, "evaluate_batch", with_extra_term)
    record, _ = run_case(1, 1, SMALL)
    assert record["wellDefined"]["passed"] is passed


# -- the text report names what failed -------------------------------------------


def _fail_formula(case):
    case["formulas"]["checks"][1]["passed"] = False
    return "    failed checks: ['delta_equals_pspan']"


def _fail_clifford_count(case):
    case["clifford"]["matrixCount"] = 2
    case["clifford"]["countOk"] = False
    return "    failed checks: ['countOk (2 matrices)']"


def _fail_cohomology(case):
    case["cohomology"]["checks"][1]["passed"] = False
    return "    failed checks: ['top_degree_sw_vanishes']"


@pytest.mark.parametrize("inject", [_fail_formula, _fail_clifford_count, _fail_cohomology])
def test_text_report_names_failing_check(inject):
    report = run_campaign(SMALL).report
    case = report["cases"][1]  # Q(1, 1): nu = 1, three Clifford matrices
    expected = inject(case)
    case["passed"] = False
    report["summary"].update(allPassed=False, failingCases=["(1,1)"])
    lines = render_campaign_text(report).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("[FAIL] Q(1,1)"))
    assert lines[at + 1] == expected
    assert lines[at + 2].startswith("[PASS] Q(2,0)")
    assert lines[-1] == "failing cases: ['(1,1)']"


# -- CLI -----------------------------------------------------------------------


def test_parse_int_spec():
    assert parse_int_spec("3") == (3,)
    assert parse_int_spec("1:4") == (1, 2, 3, 4)
    assert parse_int_spec("0,2,4") == (0, 2, 4)
    with pytest.raises(ValueError):
        parse_int_spec("4:1")


def test_cli_invariants_smallest(capsys):
    assert main(["invariants", "--m", "1", "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert "delta = 2 nu + m + 1     2" in out
    assert "dim = 2" in out


def test_cli_invariants_json(capsys):
    assert main(["invariants", "--m", "2", "--n", "7", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["delta"] == 9 and obj["nu"] == 3
    assert obj["consistent"]


def test_cli_invariants_even_note(capsys):
    assert main(["invariants", "--m", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "span(Q) = 1 < pspan(Q) = 3" in out


def test_cli_invariants_rejects_bad_params(capsys):
    assert main(["invariants", "--m", "0", "--n", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_cohomology(capsys):
    assert main(["cohomology", "--m", "2", "--n", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["swUpperBound"] == 3
    ruled = {e["k"]: e["ruledOut"] for e in obj["ruleOuts"]}
    assert ruled[3] is False and ruled[4] is True
    witnesses = next(e for e in obj["ruleOuts"] if e["k"] == 4)["witnesses"]
    assert witnesses and all(w["failureDegree"] is not None for w in witnesses)
    later = [(e["k"], e["ruledOut"], e["witnessCount"]) for e in obj["ruleOuts"] if e["k"] > 4]
    assert later == [(5, True, 56), (6, True, 84), (7, True, 120)]
    assert obj["kMax"] == obj["dim"] == 7 and obj["boundNotBelowPspan"] is True


def test_cli_cohomology_smallest(capsys):
    assert main(["cohomology", "--m", "1", "--n", "0"]) == 0
    assert "w(Q(1,0)) = 1 + x" in capsys.readouterr().out


# sha256 of `wallspan cohomology` output, text and --format json: the report
# bytes are a contract, so a rework of the rule-out scan must leave them unchanged
COHOMOLOGY_SHA256 = {
    (2, 2, "text"): "cc26919917c5f24f1394fdf144d8b2fa694970ec7e9dd6a4c8f16e0e55a1b71e",
    (2, 2, "json"): "bef37abbb0240b02f9d36a780b685ffb780d5ea0c80b4e0b1a79d87eceefd285",
    (4, 5, "text"): "8727ac3d621979f77a2d6d69a1ede96e71a2ca977c224fd69b1256d2671b0125",
    (4, 5, "json"): "c3f26e32d119e5bc0b9558b1eac7c5f024c41e53993d139b9e87408f069910be",
    (10, 7, "text"): "3a2dd55966f3466542e407d1ccbe2c8b8e0f7083dd8aa80143c7762878943082",
    (10, 7, "json"): "ef350619e468d73ba67eedc0f7421d768db5237e31efadca1b22f5c146ed5da7",
}


@pytest.mark.parametrize("m,n,fmt", sorted(COHOMOLOGY_SHA256))
def test_cli_cohomology_golden(capsys, m, n, fmt):
    assert main(["cohomology", "--m", str(m), "--n", str(n), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == COHOMOLOGY_SHA256[m, n, fmt]


def test_cli_clifford(capsys):
    assert main(["clifford", "--n", "1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matrixCount"] == 3
    assert obj["allPassed"]
    assert obj["predictedSigns"] == [-1, -1, 1]
    assert obj["matrices"][0]["entries"] == [["i", "0"], ["0", "-i"]]


def test_cli_fields_byte_identical(capsys):
    argv = ["fields", "--m", "1", "--n", "0:1", "--samples", "5", "--seed", "11", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["summary"]["allPassed"]


def test_cli_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WALLSPAN_SEED", "123")
    argv = ["fields", "--m", "1", "--n", "0", "--samples", "2", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123


def test_cli_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_reports_broken_family(capsys, monkeypatch):
    a = build_family(1).matrices
    _use_family(monkeypatch, 1, (a[0], a[0], a[2]))
    assert main(["fields", "--m", "2", "--n", "1", "--samples", "5"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "rank deficiency observed" in out
    assert main(["accept"]) == 1
    assert "acceptance: FAIL" in capsys.readouterr().out


def test_cli_non_finite_field_fails_its_case(capsys, monkeypatch):
    # a NaN field value is a failed check (exit 1), not an SVD error (exit 2)
    evaluate = fields.evaluate_batch

    def with_nan(points, family):
        f = evaluate(points, family)
        f.mu[3, -1] = np.nan  # not the first residual slot
        return f

    monkeypatch.setattr(fields, "evaluate_batch", with_nan)
    argv = ["fields", "--m", "1", "--n", "1", "--samples", "5"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "[FAIL] Q(1,1)" in out and "rank deficiency observed" in out
    assert main(argv + ["--format", "json"]) == 1
    case = json.loads(capsys.readouterr().out)["cases"][0]
    assert case["independence"]["minOfMinRelativeSv"] is None
    assert case["tangency"]["maxResidualLambdaMu"] is None
    assert not case["tangency"]["passed"] and not case["independence"]["rankOk"]
    assert main(["accept"]) == 1
    assert "acceptance: FAIL" in capsys.readouterr().out


class _HugeDraw:
    """A stream whose first standard_normal draw is 1e200, so |z| overflows."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, shape):
        draws = self.rng.standard_normal(shape)
        draws[0, 0] = 1e200
        return draws


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    # check_unit failing inside a run is no bad flag: main does not return 2,
    # the error propagates (a traceback and exit status 1 from entry_point)
    stream = fields.stream
    monkeypatch.setattr(fields, "stream", lambda *key: _HugeDraw(stream(*key)))
    with pytest.raises(ValueError, match="sample 0: z must be a unit vector") as exc:
        main(["fields", "--m", "1", "--n", "1", "--samples", "5"])
    assert not isinstance(exc.value, cli.UsageError)
    assert capsys.readouterr().err == ""


def test_run_case_memory_peak():
    # one stacked evaluation per image and per root keeps the traced peak of a
    # case near 1 MB; stacking the 8 roots into one evaluation raised it to 2.6 MB
    config = CampaignConfig(m_values=(4,), n_values=(7,), samples_per_case=100)
    run_case(4, 7, config)  # builds the cached Clifford family and its report
    tracemalloc.start()
    try:
        run_case(4, 7, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_cli_rejects_removed_flags():
    # the tolerances, accept's grid and the full rule-out scan are pinned: no flag sets them
    for argv in (
        ["fields", "--m", "1", "--n", "0", "--samples", "2", "--tol-rank", "1"],
        ["accept", "--samples", "1"],
        ["cohomology", "--m", "2", "--n", "2", "--k-max", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_rejects_bad_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("WALLSPAN_SEED", "abc")
    for argv in (["invariants", "--m", "1", "--n", "0"], ["fields", "--m", "1", "--n", "0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "WALLSPAN_SEED" in err


def test_cli_rejects_negative_seed(capsys, monkeypatch):
    expected = "error: seed must be >= 0, got -1\n"
    for argv in (["fields", "--seed", "-1"], ["accept", "--seed", "-1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == expected
    monkeypatch.setenv("WALLSPAN_SEED", "-1")
    for argv in (["fields"], ["accept"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == expected


@pytest.mark.parametrize("seed", [2**32, 10**30])
def test_cli_multiword_seed_runs(capsys, seed):
    # seeds past 32 bits give SeedSequence more than one entropy word
    argv = ["fields", "--m", "1:2", "--n", "0:2", "--samples", "5", "--seed", str(seed), "--format", "json"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["seed"] == seed and obj["summary"]["allPassed"]


@pytest.mark.parametrize("flag,spec,name", [("--m", "1,1", "m"), ("--n", "0:2,1", "n")])
def test_cli_rejects_repeated_grid_values(capsys, flag, spec, name):
    argv = ["fields", "--m", "1", "--n", "0", flag, spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: repeated {name} values in ")


def test_cli_usage_errors_exit_2(capsys):
    for argv in (
        ["clifford", "--n", "-1"],
        ["cohomology", "--m", "0", "--n", "1"],
        ["fields", "--m", "x"],
        ["fields", "--n", "3:1"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_zero_samples(capsys):
    assert main(["fields", "--m", "1", "--n", "0", "--samples", "0"]) == 2


def test_cli_accept_json_small_grid(capsys, monkeypatch):
    # accept takes no grid flags; the same JSON report path runs on a small grid
    small = partial(CampaignConfig, m_values=(1,), n_values=(0, 1), samples_per_case=5)
    monkeypatch.setattr(cli, "CampaignConfig", small)
    assert main(["accept", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in obj["criteria"]] == list(range(1, 8))
    assert obj["allPassed"]
    assert obj["campaignSummary"]["caseCount"] == 2


def test_cli_accept_json_byte_identical(capsys):
    # accept runs the pinned default grid
    argv = ["accept", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    obj = json.loads(first)
    assert [c["id"] for c in obj["criteria"]] == list(range(1, 8))
    assert obj["allPassed"]
    assert obj["campaignSummary"]["caseCount"] == 36
    assert all("elapsedSeconds" not in c for c in obj["criteria"])
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_accept_default_grid(capsys):
    assert main(["accept"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7
    assert "acceptance: PASS" in out
