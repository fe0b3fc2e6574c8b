"""Campaign assembly, report determinism and the CLI surface."""

import hashlib
import itertools
import json
import tracemalloc
from functools import lru_cache, partial

import numpy as np
import pytest

from clifford_reference import duplicate_word, times_i
from wallspan import cli, f2cohomology, fields, harness
from wallspan.cli import main, parse_int_spec
from wallspan.clifford import build_family
from wallspan.harness import (
    CampaignConfig,
    render_campaign_text,
    report_to_json,
    run_campaign,
    run_case,
)
from wallspan.invariants import WallParams

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


def _use_family(monkeypatch, family):
    # replaces the campaign's family at its n only; other n keep the real one
    broken = (family, harness.clifford_section(family))
    clifford_for = harness.clifford_for
    monkeypatch.setattr(harness, "clifford_for", lambda n: broken if n == family.n else clifford_for(n))


# the `clifford` section of every case at n = 0, 1, 3, as the per-case assembly gave it
CLAIM = "A_j A_k = -A_k A_j; A_j* = -A_j; conj(A_j) = eps_j A_j (exact)"
CLIFFORD_SECTIONS = {
    n: {
        "matrixCount": count,
        "expectedCount": count,
        "countOk": True,
        "identitiesTotal": total,
        "identitiesPassed": total,
        "allPassed": True,
        "failures": [],
        "claim": CLAIM,
        "passed": True,
    }
    for n, count, total in ((0, 1, 2), (1, 3, 9), (3, 5, 20))
}


def test_clifford_section_built_once_per_n(monkeypatch):
    # a fresh cache, so the counts do not depend on what earlier tests built
    calls = {"build": [], "verify": []}
    build, verify = harness.build_family, harness.verify_family
    monkeypatch.setattr(harness, "build_family", lambda n: calls["build"].append(n) or build(n))
    monkeypatch.setattr(harness, "verify_family", lambda f: calls["verify"].append(f.n) or verify(f))
    monkeypatch.setattr(harness, "clifford_for", lru_cache(maxsize=None)(harness.clifford_for.__wrapped__))
    config = CampaignConfig(m_values=(1, 2), n_values=(0, 1, 3), samples_per_case=5, seed=7)
    result = run_campaign(config)
    assert calls == {"build": [0, 1, 3], "verify": [0, 1, 3]}
    assert [c["clifford"] for c in result.report["cases"]] == [CLIFFORD_SECTIONS[n] for n in (0, 1, 3)] * 2

    # a record's section is its own copy: changing it reaches neither the cache nor another record
    expected = report_to_json(result.report)
    section = result.report["cases"][0]["clifford"]
    section["failures"].append("anticommute[1,2]")
    section["allPassed"] = False
    assert report_to_json(run_campaign(config).report) == expected
    assert calls == {"build": [0, 1, 3], "verify": [0, 1, 3]}


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
    _use_family(monkeypatch, duplicate_word(build_family(1), 1, 2))
    record, _ = run_case(2, 1, SMALL)
    assert not record["independence"]["rankOk"]
    assert record["independence"]["svdFallbacks"] == SMALL.samples_per_case
    assert not record["passed"]


def test_hermitian_matrix_fails_sigma_sign(monkeypatch):
    _use_family(monkeypatch, times_i(build_family(1), 1))
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


def test_cli_invariants_exit_code_is_the_records_verdict(capsys, monkeypatch):
    # every check of the record passes, but its own verdict says no: the CLI follows the verdict
    record = harness.formula_record(WallParams(1, 3))
    assert all(c["passed"] for c in record["checks"])
    monkeypatch.setattr(cli, "formula_record", lambda p: {**record, "passed": False})
    assert main(["invariants", "--m", "1", "--n", "3"]) == 1
    assert "consistency              FAIL" in capsys.readouterr().out
    assert main(["invariants", "--m", "1", "--n", "3", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["consistent"] is False


def test_cli_invariants_rejects_bad_params(capsys):
    assert main(["invariants", "--m", "0", "--n", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_cohomology(capsys):
    assert main(["cohomology", "--m", "2", "--n", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["swUpperBound"] == 3
    ruled = {e["k"]: e["ruledOut"] for e in obj["ruleOuts"]}
    assert ruled[3] is False and ruled[4] is True
    # the list stops at the first ruled-out k, whose 4k keys all fail above degree dim - k = 3
    assert [e["k"] for e in obj["ruleOuts"]] == [1, 2, 3, 4] and obj["dim"] == 7
    witnesses = obj["ruleOuts"][-1]["witnesses"]
    assert len(witnesses) == 16 and all(w["failureDegree"] > 3 for w in witnesses)
    assert witnesses[0] == {"key": [0, 0, 0], "failureDegree": 4}
    assert obj["ruleOuts"][2]["admissibleKey"] == [3, 0, 1]  # {x+c, x+c, x+c} passes at k = 3
    assert "kMax" not in obj and obj["boundNotBelowPspan"] is True


def test_cli_cohomology_smallest(capsys):
    assert main(["cohomology", "--m", "1", "--n", "0"]) == 0
    assert "w(Q(1,0)) = 1 + x" in capsys.readouterr().out


# sha256 of `wallspan cohomology` output, text and --format json: the report
# bytes are a contract, so a rework of the rule-out scan must leave them unchanged
COHOMOLOGY_SHA256 = {
    (2, 2, "text"): "35292fbff284d0a998b5738b42e2aac713479fbf15d55985dc4b901982c44010",
    (2, 2, "json"): "4e0e6c72c37efceaae10bc5f8b17e998adbdc3e8436d4900eff28cd51c4c6a31",
    (4, 5, "text"): "b43a8d28c010c7a5ace6ca2b944420b79e5d64b04a580611e5626dc2161b03e0",
    (4, 5, "json"): "04807378b6006ca96d8db16ef3070cace6ed10b521e54b55deef34911e028672",
    (10, 7, "text"): "e8d1b0a4804c73057705f31b064da5722748cb50cfbacef0b25fef5785f61092",
    (10, 7, "json"): "b2aeaf4cf48337e213cb247b2cebf547fc5ed457fa20a1f07012b7019c966749",
    (16, 255, "text"): "ad66480de1c0f1ef273f73e03f236fbec31eac406f2289fc783923a297f4822d",
    (16, 255, "json"): "f707ce1c124c1ee91a252d300db31548772839335e6ab7fcc856d128006e49c3",
}


@pytest.mark.parametrize("m,n,fmt", sorted(COHOMOLOGY_SHA256))
def test_cli_cohomology_golden(capsys, m, n, fmt):
    assert main(["cohomology", "--m", str(m), "--n", str(n), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == COHOMOLOGY_SHA256[m, n, fmt]


@pytest.mark.parametrize("m,n", [(4, 5), (1, 255)])
def test_cohomology_lists_witnesses_for_the_deciding_k_only(capsys, monkeypatch, m, n):
    # each admissible row's key comes from the top degrees alone; only the first
    # ruled-out k lists its 4k witnesses, and (1, 255) rules out no k <= dim
    failure_degree, calls = f2cohomology.VirtualSwSearch.class_failure_degree, []
    counted = lambda self, key, allowed: calls.append(key) or failure_degree(self, key, allowed)
    monkeypatch.setattr(f2cohomology.VirtualSwSearch, "class_failure_degree", counted)
    assert main(["cohomology", "--m", str(m), "--n", str(n)]) == 0
    first = f2cohomology.VirtualSwSearch(WallParams(m, n)).first_ruled_out()
    assert len(calls) == 4 * (first or 0) and first == {(4, 5): 8, (1, 255): None}[m, n]


# the same contract for `wallspan clifford` and `wallspan invariants`, whose
# reports share the envelope with `cohomology`; (2, 2) carries the even note
REPORT_SHA256 = {
    ("clifford --n 1", "text"): "b22940c1b9514204454e196604d8fd4f0afdcdfef4e6a219819f392c856fd856",
    ("clifford --n 1", "json"): "c6c17f956903f4422f217f8bfd0c8ccbebd95289093b73024f04341848adbc60",
    ("clifford --n 7", "text"): "a40149b67aa76cab1616d332a2239051e38527cad4dea61779a5e50acac660c1",
    ("clifford --n 7", "json"): "3ce61735adc7ba0d7f5b085d07b96b9f452ba6d051d6fc0d7e51152ffe1b6cb3",
    ("invariants --m 2 --n 2", "text"): "83f48db6752e0f322da981532a0c85a03c1e4db1dc0b75d43efc381c63b328aa",
    ("invariants --m 2 --n 2", "json"): "80db647e77eb03cc31c42a3127d37b8f3229fd48b3446b56296251948cfe0a42",
    ("invariants --m 1 --n 3", "text"): "e0ac49d941056bf5acb7f27e943fd1e1a55dc9f1104c9aae16248d1cb5efdfbd",
    ("invariants --m 1 --n 3", "json"): "3d6407903454521f5b4b3a11860090b786ddf8fcfd24ce36eed01b600b177fde",
}


@pytest.mark.parametrize("args,fmt", sorted(REPORT_SHA256))
def test_cli_report_golden(capsys, args, fmt):
    assert main([*args.split(), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[args, fmt]


# sha256 of `wallspan fields --seed S --format json` on the default grid, taken
# with the six float statistics removed: a numpy or BLAS version may move
# their last bits, while every sign, rank, fallback count, flag, w(Q), witness
# and hash stays
FIELDS_SHA256 = {
    42: "4983206d7ddc9406949efa364d86d8af71e88486f7bf549c228fc78d9a830fb2",
    7919: "3ec5b1261bbe5bb1fa616b769bf43ab1a6e49dd3d5f28da6e2507e5d2f6b29fc",
}
FLOAT_STATS = {
    "independence": ("minOfMinRelativeSv", "maxOfMinRelativeSv", "maxGramDeviation"),
    "tangency": ("maxResidualZW", "maxResidualVU", "maxResidualLambdaMu"),
}


@pytest.mark.parametrize("seed", sorted(FIELDS_SHA256))
def test_cli_fields_golden(capsys, seed):
    assert main(["fields", "--seed", str(seed), "--format", "json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report_to_json(report) == out
    for case in report["cases"]:
        for section, keys in FLOAT_STATS.items():
            for key in keys:
                del case[section][key]
    assert hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest() == FIELDS_SHA256[seed]


@pytest.mark.parametrize("m,n", [(1, 0), (2, 2), (4, 5)])
def test_case_and_cohomology_report_share_the_obstruction(capsys, m, n):
    # a campaign case and `wallspan cohomology` take w(Q), the scan, the bound
    # and its verdict from the one harness.obstruction_check
    record, _ = run_case(m, n, CampaignConfig(m_values=(m,), n_values=(n,), samples_per_case=2))
    assert main(["cohomology", "--m", str(m), "--n", str(n), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    case, last = record["cohomology"], report["ruleOuts"][-1]
    for key in ("totalSw", "totalSwByDegree", "swUpperBound"):
        assert case[key] == report[key], key
    assert case["ruledOutAtK"] == (last["k"] if last["ruledOut"] else None)
    assert case["ruleOutWitnesses"] == last.get("witnesses", [])
    assert case["checks"][0]["passed"] is report["boundNotBelowPspan"] is True


def test_total_sw_json_matches_per_degree_render():
    # the one-pass serialisation against the per-degree form it replaced
    for m, n in itertools.product(range(1, 9), range(17)):
        w = f2cohomology.total_sw_wall(WallParams(m, n))
        for c in (w, w.ring.zero(), w.ring.one(), w + w.ring.gen("x") * w):
            by_degree = [{"degree": q, "value": c.component(q).render()} for q in c.degrees()]
            assert harness.total_sw_json(c) == {"totalSw": c.render(), "totalSwByDegree": by_degree}, (m, n)


def test_cli_clifford(capsys):
    assert main(["clifford", "--n", "1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert {k: obj[k] for k in CLIFFORD_SECTIONS[1]} == CLIFFORD_SECTIONS[1]  # the campaign's section
    assert [g["sign"] for g in obj["generators"]] == [-1, -1, 1]
    assert obj["generators"][0] == {"index": 1, "word": [0, 1, 1], "sign": -1}  # A_1 = iZ = diag(i, -i)


def test_cli_clifford_exit_code_is_the_sections_verdict(capsys, monkeypatch):
    # every identity holds and the count is right, but the section's verdict says no
    family, section = harness.clifford_for(1)
    assert section["allPassed"] and section["countOk"]
    monkeypatch.setattr(cli, "clifford_for", lambda n: (family, {**section, "passed": False}))
    assert main(["clifford", "--n", "1"]) == 1
    assert "identities: 9/9 passed" in capsys.readouterr().out
    assert main(["clifford", "--n", "1", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize("n", [1, 7, 95])
def test_cli_clifford_json_words_decode_to_the_family(capsys, n):
    # perm[r] = r XOR x and phase[r] = c + 2 parity(r AND z) mod 4, the clifford docstring
    assert main(["clifford", "--n", str(n), "--format", "json"]) == 0
    generators = json.loads(capsys.readouterr().out)["generators"]
    family = build_family(n)
    assert [g["index"] for g in generators] == list(range(1, family.count + 1))
    assert tuple(g["sign"] for g in generators) == family.predicted_signs
    rows = range(n + 1)
    perm = [[r ^ g["word"][0] for r in rows] for g in generators]
    phase = [[(g["word"][2] + 2 * (r & g["word"][1]).bit_count()) % 4 for r in rows] for g in generators]
    assert family.perm.tolist() == perm
    assert family.phase.tolist() == phase


def test_cli_clifford_json_size_does_not_grow_with_n(capsys):
    # the words, not (n+1)^2 entries per generator: 16.8 MB at n = 255 under schema v1
    assert main(["clifford", "--n", "255", "--format", "json"]) == 0
    assert len(capsys.readouterr().out.encode("utf-8")) < 10_000


def test_cli_fields_byte_identical(capsys):
    argv = ["fields", "--m", "1", "--n", "0:1", "--samples", "5", "--seed", "11", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["summary"]["allPassed"]


def test_cli_fields_defaults_are_the_campaign_config(capsys):
    # the default grid, samples and seed are written once, in CampaignConfig
    assert main(["fields", "--format", "json"]) == 0
    assert capsys.readouterr().out == report_to_json(run_campaign(CampaignConfig()).report)


def test_cli_ignores_wallspan_seed(capsys, monkeypatch):
    # --seed is the one way to set the seed; the environment changes no report
    argv = ["accept", "--format", "json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("WALLSPAN_SEED", "7")
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    monkeypatch.setenv("WALLSPAN_SEED", "abc")
    assert main(["invariants", "--m", "1", "--n", "0"]) == 0


def test_cli_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_reports_broken_family(capsys, monkeypatch):
    _use_family(monkeypatch, duplicate_word(build_family(1), 1, 2))
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
    assert case["independence"]["svdFallbacks"] == 1  # the other 4 samples are finite and Gram-decided
    assert 0.0 <= case["independence"]["maxGramDeviation"] < 1e-14
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
    # check_unit failing inside a run is no bad flag and no failed check: main
    # returns 3, with the traceback on stderr
    stream = fields.stream
    monkeypatch.setattr(fields, "stream", lambda *key: _HugeDraw(stream(*key)))
    assert main(["fields", "--m", "1", "--n", "1", "--samples", "5"]) == cli.INTERNAL_ERROR == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "ValueError: sample 0: z must be a unit vector" in err


def test_cli_crash_in_cohomology_exits_3(capsys, monkeypatch):
    def crash(params, pspan):
        raise MemoryError("no room for the ring")

    monkeypatch.setattr(cli, "obstruction_check", crash)
    assert main(["cohomology", "--m", "2", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "MemoryError: no room for the ring" in captured.err


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


def test_cli_rejects_negative_seed(capsys):
    expected = "error: seed must be >= 0, got -1\n"
    for argv in (["fields", "--seed", "-1"], ["accept", "--seed", "-1"]):
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


def test_cli_clifford_rejects_negative_n(capsys):
    assert main(["clifford", "--n", "-3"]) == 2
    assert capsys.readouterr().err == "error: need n >= 0, got -3\n"


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
