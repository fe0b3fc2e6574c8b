"""Command-line front end.

Subcommands: `invariants`, `cohomology`, `clifford`, `fields`, `accept`.
Exit codes: 0 = all checks passed, 1 = a verification check failed,
2 = usage error (bad flags, parameter ranges or WALLSPAN_SEED, raised as
`UsageError`).  Any other error is not a usage error: it propagates with its
traceback (exit 1).  The seed defaults to the WALLSPAN_SEED environment
variable when set, else 42; identical configurations produce byte-identical JSON reports.  `accept`
always runs the default grid, so its only inputs are the seed and the format.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Sequence

from .acceptance import run_acceptance
from .clifford import build_family, verify_family
from .f2cohomology import VirtualSwSearch
from .harness import (
    DEFAULT_SEED,
    SCHEMA_VERSION,
    CampaignConfig,
    render_campaign_text,
    report_to_json,
    run_campaign,
    total_sw_json,
)
from .invariants import WallParams, pspan_wall, sspan_cpn, upper_bound_fibration

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(ValueError):
    """A bad flag value, parameter range or WALLSPAN_SEED: exit code 2."""


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


def default_seed() -> int:
    env = os.environ.get("WALLSPAN_SEED") or str(DEFAULT_SEED)
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"WALLSPAN_SEED must be an integer, got {env!r}") from None


def emit(obj: dict[str, Any], fmt: str, text: str) -> None:
    if fmt == "json":
        sys.stdout.write(report_to_json(obj))
    else:
        sys.stdout.write(text)


def cmd_invariants(args: argparse.Namespace) -> int:
    p = validated(WallParams, args.m, args.n)
    pspan = pspan_wall(p)
    fib = upper_bound_fibration(p)
    sspan = sspan_cpn(p.n)
    consistent = pspan == fib and p.delta == pspan and pspan <= p.dim
    note = None
    if p.m % 2 == 0 and p.n % 2 == 0 and p.n > 0:
        note = f"m, n both even: span(Q) = 1 < pspan(Q) = {pspan} = m+1"
    obj: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "tool": "wallspan",
        "kind": "invariants",
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
    search = VirtualSwSearch(p)
    rule_outs = []
    for last in search.scan():
        entry: dict[str, Any] = {
            "k": last.k,
            "ruledOut": last.ruled_out,
            "maxAllowedDegree": last.max_allowed_degree,
        }
        if last.ruled_out:
            entry["witnesses"] = [x.to_json_dict() for x in last.witnesses]
        else:
            entry["admissibleMultiset"] = last.witnesses[-1].describe()
        rule_outs.append(entry)
    # the scan stopped at the first ruled-out k, since every larger k is ruled
    # out too: all (k+1)(k+2)(k+3)/6 multisets of k classes in {0, x, c, x+c} fail
    for k in range(last.k + 1, p.dim + 1):
        count = (k + 1) * (k + 2) * (k + 3) // 6
        rule_outs.append(
            {"k": k, "ruledOut": True, "maxAllowedDegree": p.dim - k, "witnessCount": count}
        )
    bound_ok = last.bound >= pspan

    obj: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "tool": "wallspan",
        "kind": "cohomology",
        "m": p.m,
        "n": p.n,
        "dim": p.dim,
        "pspan": pspan,
        **total_sw_json(search.w),
        "kMax": p.dim,  # the scan always runs to dim; the key goes with schema v2
        "ruleOuts": rule_outs,
        "swUpperBound": last.bound,
        "boundNotBelowPspan": bound_ok,
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
            lines.append(
                f"k = {entry['k']:2d}: admissible, witness {entry['admissibleMultiset']}"
            )
    lines.append(f"sw upper bound = {last.bound} (pspan = {pspan})")
    emit(obj, args.format, "\n".join(lines) + "\n")
    return 0 if bound_ok else CHECK_FAILED


def cmd_clifford(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"need n >= 0, got {args.n}")
    family = build_family(args.n)
    report = verify_family(family)
    obj: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "tool": "wallspan",
        "kind": "clifford",
        "n": family.n,
        "nu": family.nu,
        "b": family.b,
        "matrixCount": family.count,
        "predictedSigns": list(family.predicted_signs),
        "identities": [{"name": c.name, "passed": c.passed} for c in report.checks],
        "allPassed": report.all_passed,
    }
    if args.format == "json":  # (n+1)^2 entries per matrix: built only when printed
        obj["matrices"] = [
            {"index": j + 1, "sign": family.predicted_signs[j], "entries": mat.entries()}
            for j, mat in enumerate(family.matrices)
        ]
    lines = [
        f"n = {family.n}: {family.count} automorphisms of C^{family.n + 1} "
        f"(nu = {family.nu}, b = {family.b})",
        f"predicted conjugation signs: {list(family.predicted_signs)}",
        f"identities: {sum(c.passed for c in report.checks)}/{len(report.checks)} passed",
    ]
    if not report.all_passed:
        lines.append(f"failures: {[c.name for c in report.failures()]}")
    if family.matrices[0].size <= 8:
        for j, mat in enumerate(family.matrices, start=1):
            lines.append(f"A_{j} =")
            lines.extend("  " + row for row in mat.pretty().splitlines())
    emit(obj, args.format, "\n".join(lines) + "\n")
    return 0 if report.all_passed else CHECK_FAILED


def cmd_fields(args: argparse.Namespace) -> int:
    config = validated(
        CampaignConfig,
        m_values=validated(parse_int_spec, args.m),
        n_values=validated(parse_int_spec, args.n),
        samples_per_case=args.samples,
        seed=args.seed,
    )
    result = run_campaign(config)
    emit(result.report, args.format, render_campaign_text(result.report))
    return 0 if result.passed else CHECK_FAILED


def cmd_accept(args: argparse.Namespace) -> int:
    result = run_acceptance(validated(CampaignConfig, seed=args.seed))
    obj = {
        "schemaVersion": SCHEMA_VERSION,
        "tool": "wallspan",
        "kind": "acceptance",
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


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallspan",
        description="Verification lab for the projective span of Wall manifolds Q(m, n).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_inv = subparsers.add_parser("invariants", help="closed-form invariants for one (m, n)")
    p_inv.add_argument("--m", type=int, required=True)
    p_inv.add_argument("--n", type=int, required=True)
    _add_format(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_coh = subparsers.add_parser("cohomology", help="total SW class and obstruction bound")
    p_coh.add_argument("--m", type=int, required=True)
    p_coh.add_argument("--n", type=int, required=True)
    _add_format(p_coh)
    p_coh.set_defaults(func=cmd_cohomology)

    p_cl = subparsers.add_parser("clifford", help="build and verify the Clifford family")
    p_cl.add_argument("--n", type=int, required=True)
    _add_format(p_cl)
    p_cl.set_defaults(func=cmd_clifford)

    seed = default_seed()
    p_f = subparsers.add_parser("fields", help="sampled verification campaign over a grid")
    p_f.add_argument("--m", default="1:4", help="m values: '2', '1:4' or '1,3'")
    p_f.add_argument("--n", default="0:8", help="n values: '2', '0:8' or '0,2,4'")
    p_f.add_argument("--samples", type=int, default=100)
    p_f.add_argument("--seed", type=int, default=seed)
    _add_format(p_f)
    p_f.set_defaults(func=cmd_fields)

    p_a = subparsers.add_parser("accept", help="run the acceptance suite on the default grid")
    p_a.add_argument("--seed", type=int, default=seed)
    _add_format(p_a)
    p_a.set_defaults(func=cmd_accept)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # reads WALLSPAN_SEED
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
