"""Command-line front end.

Subcommands: `invariants`, `cohomology`, `clifford`, `fields`, `accept`.
Exit codes: 0 = all checks passed, 1 = a verification check failed,
2 = usage error (bad flags or parameter ranges, raised as `UsageError`),
3 = internal error (any other exception, with its traceback on stderr).
This module only parses flags, renders reports and sets exit codes: the
checks, their verdicts and the defaults of `fields` and `accept` (grid,
samples and seed) come from `harness.CampaignConfig` and the `harness`
builders.  Identical configurations produce byte-identical JSON reports.
`accept` always runs the default grid, so its only inputs are the seed and
the format.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Sequence

from .acceptance import run_acceptance
from .harness import (
    CampaignConfig,
    clifford_for,
    formula_record,
    obstruction_check,
    render_campaign_text,
    report_envelope,
    report_to_json,
    run_campaign,
    witnesses_json,
)
from .invariants import WallParams, pspan_wall

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


class UsageError(ValueError):
    """A bad flag value or parameter range: exit code 2."""


def validated(make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """make(*args, **kwargs), its ValueError (an input out of range) as a UsageError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_int_spec(spec: str) -> tuple[int, ...]:
    """Parse '3', '1:4' (inclusive) or '0,2,4' into a tuple of ints."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ":" in part:
            lo_s, hi_s = part.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(part))
    if not values:
        raise ValueError(f"empty spec {spec!r}")
    return tuple(values)


def emit(obj: dict[str, Any], fmt: str, text: str) -> None:
    if fmt == "json":
        sys.stdout.write(report_to_json(obj))
    else:
        sys.stdout.write(text)


def cmd_invariants(args: argparse.Namespace) -> int:
    p = validated(WallParams, args.m, args.n)
    formulas = formula_record(p)
    pspan, fib, sspan = formulas["pspan"], formulas["fibrationUpperBound"], formulas["sspanCpn"]
    consistent = formulas["passed"]
    note = None
    if p.m % 2 == 0 and p.n % 2 == 0 and p.n > 0:
        note = f"m, n both even: span(Q) = 1 < pspan(Q) = {pspan} = m+1"
    obj: dict[str, Any] = {
        **report_envelope("invariants"),
        "m": p.m,
        "n": p.n,
        "nu": p.nu,
        "delta": p.delta,
        "dim": p.dim,
        "pspan": pspan,
        "fibrationUpperBound": fib,
        "sspanCpn": sspan,
        "consistent": consistent,
        "note": note,
    }
    lines = [
        f"Q(m={p.m}, n={p.n}):  dim = {p.dim}",
        f"nu(n+1)                  {p.nu}",
        f"delta = 2 nu + m + 1     {p.delta}",
        f"pspan (closed form)      {pspan}",
        f"fibration upper bound    {fib}",
        f"sspan(CP^n)              {sspan}",
        f"consistency              {'PASS' if consistent else 'FAIL'}",
    ]
    if note:
        lines.append(f"note: {note}")
    emit(obj, args.format, "\n".join(lines) + "\n")
    return 0 if consistent else CHECK_FAILED


def cmd_cohomology(args: argparse.Namespace) -> int:
    p = validated(WallParams, args.m, args.n)
    pspan = pspan_wall(p)
    obstruction = obstruction_check(p, pspan)
    search = obstruction.search
    # the admissible k = 1 .. bound, each with a passing key, then the first ruled-out k with its witnesses
    rule_outs: list[dict[str, Any]] = [
        {"k": k, "ruledOut": False, "maxAllowedDegree": p.dim - k, "admissibleKey": list(search.admissible_key(k))}
        for k in range(1, obstruction.bound + 1)
    ]
    if deciding := obstruction.deciding:
        entry = {"k": deciding.k, "ruledOut": True, "maxAllowedDegree": deciding.max_allowed_degree}
        rule_outs.append({**entry, "witnesses": witnesses_json(deciding.witnesses)})

    obj: dict[str, Any] = {
        **report_envelope("cohomology"),
        "m": p.m,
        "n": p.n,
        "dim": p.dim,
        "pspan": pspan,
        **obstruction.total_sw,
        "ruleOuts": rule_outs,
        "swUpperBound": obstruction.bound,
        "boundNotBelowPspan": obstruction.bound_ok,
    }
    lines = [f"w(Q({p.m},{p.n})) = {obj['totalSw']}"]
    for piece in obj["totalSwByDegree"]:
        lines.append(f"  w_{piece['degree']} = {piece['value']}")
    for entry in rule_outs:
        if entry["ruledOut"]:
            lines.append(
                f"k = {entry['k']:2d}: ruled out (every degree-1 multiset fails above degree "
                f"{entry['maxAllowedDegree']})"
            )
        else:
            lines.append(f"k = {entry['k']:2d}: admissible, passing key {tuple(entry['admissibleKey'])}")
    lines.append(f"sw upper bound = {obstruction.bound} (pspan = {pspan})")
    emit(obj, args.format, "\n".join(lines) + "\n")
    return 0 if obstruction.bound_ok else CHECK_FAILED


def cmd_clifford(args: argparse.Namespace) -> int:
    family, section = validated(clifford_for, args.n)
    obj: dict[str, Any] = {
        **report_envelope("clifford"),
        "n": family.n,
        "nu": family.nu,
        "b": family.b,
        **section,
        "generators": [
            {"index": j, "word": list(word), "sign": sign}
            for j, (word, sign) in enumerate(zip(family.words, family.predicted_signs), start=1)
        ],
    }
    lines = [
        f"n = {family.n}: {family.count} automorphisms of C^{family.n + 1} "
        f"(nu = {family.nu}, b = {family.b})",
        f"predicted conjugation signs: {list(family.predicted_signs)}",
        f"identities: {section['identitiesPassed']}/{section['identitiesTotal']} passed",
    ]
    if not section["allPassed"]:
        lines.append(f"failures: {section['failures']}")
    if family.n + 1 <= 8:
        for j, mat in enumerate(family.matrices, start=1):
            lines.append(f"A_{j} =")
            lines.extend("  " + row for row in mat.pretty().splitlines())
    emit(obj, args.format, "\n".join(lines) + "\n")
    return 0 if section["passed"] else CHECK_FAILED


def cmd_fields(args: argparse.Namespace) -> int:
    grid = {  # a flag left out keeps the CampaignConfig default
        name: validated(parse_int_spec, spec)
        for name, spec in (("m_values", args.m), ("n_values", args.n))
        if spec is not None
    }
    config = validated(CampaignConfig, **grid, samples_per_case=args.samples, seed=args.seed)
    result = run_campaign(config)
    emit(result.report, args.format, render_campaign_text(result.report))
    return 0 if result.passed else CHECK_FAILED


def cmd_accept(args: argparse.Namespace) -> int:
    result = run_acceptance(validated(CampaignConfig, seed=args.seed))
    obj = {
        **report_envelope("acceptance"),
        "seed": args.seed,
        "configHash": result.campaign.report["configHash"],
        "criteria": [
            {"id": c.cid, "title": c.title, "passed": c.passed, "details": c.details}
            for c in result.criteria
        ],
        "allPassed": result.passed,
        "campaignSummary": result.campaign.report["summary"],
    }
    lines = [c.line() for c in result.criteria]
    lines.append("acceptance: " + ("PASS" if result.passed else "FAIL"))
    emit(obj, args.format, "\n".join(lines) + "\n")
    return 0 if result.passed else CHECK_FAILED


def _finish(sub: argparse.ArgumentParser, func: Callable[[argparse.Namespace], int]) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallspan",
        description="Verification lab for the projective span of Wall manifolds Q(m, n).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_inv = subparsers.add_parser("invariants", help="closed-form invariants for one (m, n)")
    p_inv.add_argument("--m", type=int, required=True)
    p_inv.add_argument("--n", type=int, required=True)
    _finish(p_inv, cmd_invariants)

    p_coh = subparsers.add_parser("cohomology", help="total SW class and obstruction bound")
    p_coh.add_argument("--m", type=int, required=True)
    p_coh.add_argument("--n", type=int, required=True)
    _finish(p_coh, cmd_cohomology)

    p_cl = subparsers.add_parser("clifford", help="build and verify the Clifford family")
    p_cl.add_argument("--n", type=int, required=True)
    _finish(p_cl, cmd_clifford)

    defaults = CampaignConfig()
    p_f = subparsers.add_parser("fields", help="sampled verification campaign over a grid")
    p_f.add_argument("--m", help="m values: '2', '1:4' or '1,3'")
    p_f.add_argument("--n", help="n values: '2', '0:8' or '0,2,4'")
    p_f.add_argument("--samples", type=int, default=defaults.samples_per_case)
    p_f.add_argument("--seed", type=int, default=defaults.seed)
    _finish(p_f, cmd_fields)

    p_a = subparsers.add_parser("accept", help="run the acceptance suite on the default grid")
    p_a.add_argument("--seed", type=int, default=defaults.seed)
    _finish(p_a, cmd_accept)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:  # a crash, not a failed check: exit 3 keeps the two apart
        import traceback  # here, not at import: only a crash loads it

        traceback.print_exc()
        return INTERNAL_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
