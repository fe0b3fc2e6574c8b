"""Deterministic verification campaigns over a grid of Wall manifolds.

A campaign sweeps a grid of (m, n) parameters and, per case, runs the four
check categories: exact Clifford identities, quasi-invariance sign tables,
linear-independence statistics, and the cohomological upper bound.  Records
carry the master seed and a config hash, and the assembled report is a
plain dict whose JSON serialisation is byte-identical for identical
configs (no timestamps; each case draws its samples from one RNG stream
keyed by the seed and the case coordinates (m, n) only).
"""

from __future__ import annotations

import json
import math
import time
from functools import cached_property, lru_cache
from typing import Any, NamedTuple

from . import fields as fl
from .clifford import CliffordFamily, build_family, verify_family
from .f2cohomology import GradedF2Poly, certified_bound, render_monomial, total_sw_wall
from .invariants import Record, WallParams, nu, pspan_wall, sspan_cpn, upper_bound_fibration

SCHEMA_VERSION = 3

EIGHTH_ROOTS = tuple(
    complex(math.cos(k * math.pi / 4.0), math.sin(k * math.pi / 4.0)) for k in range(8)
)


class CampaignConfig(Record):
    """Grid, sampling budget and seed of a verification campaign.  Configs
    compare and hash by their four fields; the grids are stored as tuples."""

    _fields = ("m_values", "n_values", "samples_per_case", "seed")

    def __init__(
        self,
        m_values: tuple[int, ...] = (1, 2, 3, 4),
        n_values: tuple[int, ...] = tuple(range(9)),
        samples_per_case: int = 100,
        seed: int = 42,
    ) -> None:
        m_values, n_values = tuple(m_values), tuple(n_values)
        if not m_values or not n_values:
            raise ValueError("parameter ranges must be non-empty")
        if any(m < 1 for m in m_values):
            raise ValueError("every m must be >= 1")
        if any(n < 0 for n in n_values):
            raise ValueError("every n must be >= 0")
        for name, values in (("m", m_values), ("n", n_values)):
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {name} values in {list(values)}")
        if samples_per_case < 1:
            raise ValueError("samples_per_case must be >= 1")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        vars(self).update(m_values=m_values, n_values=n_values, samples_per_case=samples_per_case, seed=seed)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "mValues": list(self.m_values),
            "nValues": list(self.n_values),
            "samplesPerCase": self.samples_per_case,
            "seed": self.seed,
            "tolerances": {
                "tangency": fl.TANGENCY_TOL,
                "invariance": fl.INVARIANCE_TOL,
                "rankRel": fl.RANK_REL_TOL,
            },
        }

    def config_hash(self) -> str:
        return self._hash

    @cached_property
    def _hash(self) -> str:  # once per config: every record of a campaign carries it
        import hashlib  # here, not at import: numpy.random has loaded it by the first run_case

        canonical = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def clifford_section(family: CliffordFamily) -> dict[str, Any]:
    """The family's exact identities and its count: a case record's `clifford`
    section.  Its `passed` (every identity holds and the count is 2 nu(n+1) + 1)
    is the verdict of the case's family, of `wallspan clifford` and of criterion 1."""
    report = verify_family(family)
    expected = 2 * nu(family.n + 1) + 1
    return {
        "matrixCount": family.count,
        "expectedCount": expected,
        "countOk": family.count == expected,
        "identitiesTotal": len(report.checks),
        "identitiesPassed": sum(report.checks),
        "allPassed": report.all_passed,
        "failures": report.failures(),
        "claim": "A_j A_k = -A_k A_j; A_j* = -A_j; conj(A_j) = eps_j A_j (exact)",
        "passed": report.all_passed and family.count == expected,
    }


@lru_cache(maxsize=None)
def clifford_for(n: int) -> tuple[CliffordFamily, dict[str, Any]]:
    """The family of n and its `clifford` section, built and verified once; records copy the section."""
    family = build_family(n)
    return family, clifford_section(family)


def _check(name: str, claim: str, passed: bool) -> dict[str, Any]:
    return {"name": name, "claim": claim, "passed": bool(passed)}


class CaseTimings:
    """Seconds spent in each check layer, of one case or summed over a campaign."""

    def __init__(
        self,
        sampling: float = 0.0,
        signs: float = 0.0,
        well_defined: float = 0.0,
        independence: float = 0.0,
        cohomology: float = 0.0,
    ) -> None:
        self.sampling, self.signs, self.well_defined = sampling, signs, well_defined
        self.independence, self.cohomology = independence, cohomology

    def add(self, other: CaseTimings) -> None:
        for name, seconds in vars(other).items():
            setattr(self, name, getattr(self, name) + seconds)


def _finite_or_none(x: float) -> float | None:
    """A report statistic: None (JSON null) when a sample made it non-finite."""
    return x if math.isfinite(x) else None


def total_sw_json(w: GradedF2Poly) -> dict[str, Any]:
    """The `totalSw` and `totalSwByDegree` entries of a report for the class w:
    w.render() and each w.component(q).render(), from one w.render_by_degree()."""
    by_degree = [{"degree": q, "value": piece} for q, piece in w.render_by_degree()]
    return {"totalSw": " + ".join(d["value"] for d in by_degree) or "0", "totalSwByDegree": by_degree}


def obstruction_check(params: WallParams, pspan: int) -> dict[str, Any]:
    """A case's `cohomology` section, also `wallspan cohomology`'s: w(Q), `certified_bound` and three checks."""
    w, dim = total_sw_wall(params), params.dim
    bound, key, top, big_j, certified = certified_bound(w)
    return {
        **total_sw_json(w),
        "swUpperBound": bound,
        "ruledOutAtK": bound + 1 if bound < dim else None,
        "admissibleWitness": {"key": list(key), "topDegree": top},
        "ruledOutWitness": big_j and {"monomial": render_monomial((0, 0, big_j)), "degree": 2 * big_j},
        "checks": [
            _check(
                "sw_bound_not_below_pspan",
                "the mod-2 obstruction bound is >= the true projective span",
                bound >= pspan,
            ),
            _check(
                "top_degree_sw_vanishes",
                "w_dim(Q) = 0 (the mod-2 Euler class of a mapping torus vanishes)",
                w.component(dim).is_zero(),
            ),
            _check(
                "witnesses_certify_bound",
                "the key (m + 2^nu, 0, 1) is admissible at the bound and, below dim, d^J rules out one more",
                certified,
            ),
        ],
    }


def formula_record(params: WallParams) -> dict[str, Any]:
    """The closed forms of Q(m, n), the four formula cross-checks between them and
    `passed`, whether all four hold: the verdict of `wallspan invariants` too."""
    pspan = pspan_wall(params)
    fib = upper_bound_fibration(params)
    checks = [
        _check(
            "pspan_equals_fibration_bound",
            "2*nu(n+1) + m + 1 == sspan_cpn(n) + dim Q(m,0)",
            pspan == fib,
        ),
        _check(
            "delta_equals_pspan",
            "the constructed field count 2*nu + m + 1 achieves the closed form",
            params.delta == pspan,
        ),
        _check("pspan_at_most_dim", "pspan(Q) <= dim Q", pspan <= params.dim),
        _check(
            "stable_gap_is_even",
            "pspan(Q) - (m+1) == 2*nu(n+1) >= 0",
            pspan - (params.m + 1) == 2 * params.nu >= 0,
        ),
    ]
    record = {"pspan": pspan, "fibrationUpperBound": fib, "sspanCpn": sspan_cpn(params.n), "checks": checks}
    return {**record, "passed": all(c["passed"] for c in checks)}


def run_case(m: int, n: int, config: CampaignConfig) -> tuple[dict[str, Any], CaseTimings]:
    """All four check categories for one (m, n); returns (record, timings)."""
    params = WallParams(m, n)
    family, clifford = clifford_for(n)
    clifford_record = {**clifford, "failures": list(clifford["failures"])}  # no list shared between records
    timings = CaseTimings()

    # formula cross-checks
    formulas = formula_record(params)
    pspan = formulas["pspan"]

    # sampled numerical checks, batched over the samples of the case
    delta = params.delta
    kinds = (fl.InvolutionKind.SIGMA, fl.InvolutionKind.TAU)

    t0 = time.perf_counter()
    points = fl.sample_batch(n, m, config.seed, config.samples_per_case)
    timings.sampling += time.perf_counter() - t0

    t0 = time.perf_counter()
    base = fl.evaluate_batch(points, family)
    max_residuals = [float(r.max()) for r in fl.tangency_residuals_batch(points, base)]
    ranks, rel, deviation, by_svd = fl.gram_ranks(base.matrix())
    ranks_ok = bool((ranks == delta).all())
    min_rel_sv = float(rel.min())
    max_rel_sv = float(rel.max())
    max_gram_dev = max((d for d in deviation.tolist() if not math.isnan(d)), default=math.nan)
    timings.independence += time.perf_counter() - t0

    t0 = time.perf_counter()
    signs = {kind: fl.equivariance_signs(kind, points, base, family) for kind in kinds}
    timings.signs += time.perf_counter() - t0

    t0 = time.perf_counter()
    well_defined_ok = all(
        (fl.equivariance_signs(omega, points, base, family) == 1).all() for omega in EIGHTH_ROOTS
    )
    timings.well_defined += time.perf_counter() - t0

    sign_entries = []
    signs_all_ok = True
    for j in range(1, delta + 1):
        for kind in kinds:
            expected = fl.expected_quasi_sign(j, kind, params.nu, m)
            seen = set(signs[kind][:, j - 1].tolist())
            constant = len(seen) == 1
            value = (next(iter(seen)) or None) if constant else None  # 0: no sign
            passed = constant and value == expected
            signs_all_ok = signs_all_ok and passed
            sign_entries.append(
                {
                    "j": j,
                    "kind": kind.value,
                    "expected": expected,
                    "observed": value,
                    "constant": constant,
                    "passed": passed,
                }
            )

    tangency_ok = all(r <= fl.TANGENCY_TOL for r in max_residuals)  # NaN fails

    # cohomology: total class and the obstruction bound
    t0 = time.perf_counter()
    cohomology_record = obstruction_check(params, pspan)
    timings.cohomology += time.perf_counter() - t0

    record = {
        "m": m,
        "n": n,
        "nu": params.nu,
        "delta": delta,
        "dim": params.dim,
        "seed": config.seed,
        "configHash": config.config_hash(),
        "formulas": formulas,
        "clifford": clifford_record,
        "signs": {"entries": sign_entries, "allPassed": signs_all_ok},
        "independence": {
            "samples": config.samples_per_case,
            "rankOk": ranks_ok,
            "minOfMinRelativeSv": _finite_or_none(min_rel_sv),
            "maxOfMinRelativeSv": _finite_or_none(max_rel_sv),
            "svdFallbacks": int(by_svd.sum()),
            "maxGramDeviation": _finite_or_none(max_gram_dev),
            "claim": "the delta stacked tangent vectors have rank delta at every sample",
        },
        "tangency": {
            "maxResidualZW": _finite_or_none(max_residuals[0]),
            "maxResidualVU": _finite_or_none(max_residuals[1]),
            "maxResidualLambdaMu": _finite_or_none(max_residuals[2]),
            "passed": tangency_ok,
        },
        "wellDefined": {"rootsOfUnity": len(EIGHTH_ROOTS), "passed": well_defined_ok},
        "cohomology": cohomology_record,
    }
    record["passed"] = all(
        [
            formulas["passed"],
            clifford_record["passed"],
            signs_all_ok,
            ranks_ok,
            tangency_ok,
            well_defined_ok,
            all(c["passed"] for c in cohomology_record["checks"]),
        ]
    )
    return record, timings


class CampaignResult(NamedTuple):
    report: dict[str, Any]
    timings: CaseTimings

    @property
    def passed(self) -> bool:
        return bool(self.report["summary"]["allPassed"])


def run_campaign(config: CampaignConfig | None = None) -> CampaignResult:
    """Run every case of the grid and assemble the deterministic report."""
    config = config or CampaignConfig()
    cases = []
    total = CaseTimings()
    for m in config.m_values:
        for n in config.n_values:
            record, timings = run_case(m, n, config)
            cases.append(record)
            total.add(timings)
    failing = [f"({c['m']},{c['n']})" for c in cases if not c["passed"]]
    report = {
        **report_envelope("verification-campaign"),
        "seed": config.seed,
        "configHash": config.config_hash(),
        "config": config.to_json_dict(),
        "cases": cases,
        "summary": {
            "caseCount": len(cases),
            "allPassed": not failing,
            "failingCases": failing,
        },
    }
    return CampaignResult(report=report, timings=total)


def report_envelope(kind: str) -> dict[str, Any]:
    """The keys that open every JSON report: schemaVersion, tool and kind."""
    return {"schemaVersion": SCHEMA_VERSION, "tool": "wallspan", "kind": kind}


def report_to_json(report: dict[str, Any]) -> str:
    """Stable serialisation: insertion-ordered keys, two-space indent."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def render_campaign_text(report: dict[str, Any]) -> str:
    lines = []
    lines.append(
        f"verification campaign: {report['summary']['caseCount']} cases, "
        f"seed {report['seed']}, config {report['configHash'][:12]}"
    )
    for case in report["cases"]:
        status = "PASS" if case["passed"] else "FAIL"
        min_rel_sv = case["independence"]["minOfMinRelativeSv"]
        lines.append(
            f"[{status}] Q({case['m']},{case['n']})  nu={case['nu']} delta={case['delta']} "
            f"dim={case['dim']} pspan={case['formulas']['pspan']} "
            f"swBound={case['cohomology']['swUpperBound']} "
            f"minRelSv={'null' if min_rel_sv is None else f'{min_rel_sv:.3e}'}"
        )
        if not case["passed"]:
            checks = case["formulas"]["checks"] + case["cohomology"]["checks"]
            failed = [c["name"] for c in checks if not c["passed"]]
            if not case["clifford"]["countOk"]:
                failed.append(f"countOk ({case['clifford']['matrixCount']} matrices)")
            if failed:
                lines.append(f"    failed checks: {failed}")
            if not case["clifford"]["allPassed"]:
                lines.append(f"    clifford failures: {case['clifford']['failures']}")
            bad_signs = [e for e in case["signs"]["entries"] if not e["passed"]]
            if bad_signs:
                lines.append(f"    sign mismatches: {bad_signs}")
            if not case["independence"]["rankOk"]:
                lines.append("    rank deficiency observed")
            if not case["tangency"]["passed"]:
                lines.append(f"    tangency residuals: {case['tangency']}")
            if not case["wellDefined"]["passed"]:
                lines.append("    representative-independence failure")
    summary = report["summary"]
    lines.append(
        "all passed" if summary["allPassed"] else f"failing cases: {summary['failingCases']}"
    )
    return "\n".join(lines) + "\n"
