"""Independent statements of the paper's results, and the benchmark's checks.

Nothing here imports wallspan.  Each check takes result values produced by
the program and returns a list of failure messages (empty when the result is
correct), so the self-tests can feed it deliberately corrupted values.
"""

from __future__ import annotations

import json

TOL = 1e-12


def two_adic(k: int) -> int:
    """Number of trailing zero bits of k >= 1."""
    count = 0
    while not k & 1:
        k >>= 1
        count += 1
    return count


def closed_form(m: int, n: int) -> int:
    """pspan(Q(m, n)) = 2 nu(n+1) + m + 1."""
    return 2 * two_adic(n + 1) + m + 1


def clifford_sign(j: int, nu: int) -> int:
    """eps_j in conj(A_j conj z) = eps_j A_j z for the 2nu+1 Clifford generators.

    The generators are tensor words in E, g1, g2, T; conjugation commutes
    with E and anticommutes with g1, g2 and T.  Word j <= 2nu holds one g
    and floor((j-1)/2) factors T; the last word is i T^nu, whose extra i
    flips the sign once more.
    """
    if j == 2 * nu + 1:
        return (-1) ** (nu + 1)
    return (-1) ** (1 + (j - 1) // 2)


def field_sign(j: int, kind: str, m: int, n: int) -> int:
    """Quasi-invariance sign of the j-th field of Q(m, n) under sigma or tau.

    Clifford fields carry eps_j under sigma and are tau-invariant; the m
    sphere fields all flip under sigma (it negates v), and under tau only the
    last one flips (tau reflects the last sphere coordinate).
    """
    nu = two_adic(n + 1)
    low = 2 * nu + 1
    if j <= low:
        return clifford_sign(j, nu) if kind == "sigma" else 1
    if kind == "sigma":
        return -1
    return -1 if j == low + m else 1


# -- w(Q(m, n)) in the basis x^e c^i d^j ---------------------------------------


def _normal(e: int, i: int, j: int, m: int, n: int) -> tuple[int, int, int] | None:
    """Normal form of x^e c^i d^j under x^2 = 0, c^(m+1) = c^m x, d^(n+1) = 0."""
    if j > n:
        return None
    if i > m + 1:
        return None
    if i == m + 1:
        i, e = m, e + 1
    if e > 1:
        return None
    return (e, i, j)


def _times(poly: set, factor: set, m: int, n: int) -> set:
    out: set = set()
    for a in poly:
        for b in factor:
            mono = _normal(a[0] + b[0], a[1] + b[1], a[2] + b[2], m, n)
            if mono is not None:
                out ^= {mono}
    return out


def total_sw(m: int, n: int) -> set:
    """(1+c+x)(1+c)^(m-1)(1+c+d)^(n+1) as a set of exponent triples (e, i, j)."""
    one, x, c, d = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    poly = {one, c, x}
    for _ in range(m - 1):
        poly = _times(poly, {one, c}, m, n)
    for _ in range(n + 1):
        poly = _times(poly, {one, c, d}, m, n)
    return poly


def render(mono: tuple[int, int, int]) -> str:
    parts = []
    for name, e in zip("xcd", mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def rendered_total_sw(m: int, n: int) -> frozenset[str]:
    return frozenset(render(mono) for mono in total_sw(m, n))


# -- checks ---------------------------------------------------------------------


def check_accept(verdict: bool, report_text: str) -> list[str]:
    """The acceptance verdict and every case of its campaign report."""
    bad = [] if verdict else ["acceptance verdict is FAIL"]
    for case in json.loads(report_text)["cases"]:
        m, n = case["m"], case["n"]
        tag = f"Q({m},{n})"
        pspan = case["formulas"]["pspan"]
        if pspan != closed_form(m, n):
            bad.append(f"{tag}: pspan {pspan} != {closed_form(m, n)}")
        bound = case["cohomology"]["swUpperBound"]
        if bound < pspan or (n % 2 == 0 and bound != pspan):
            bad.append(f"{tag}: swUpperBound {bound} vs pspan {pspan}")
        for entry in case["signs"]["entries"]:
            want = field_sign(entry["j"], entry["kind"], m, n)
            if entry["observed"] != want or not entry["passed"]:
                bad.append(f"{tag}: j={entry['j']} {entry['kind']} sign {entry['observed']} != {want}")
    return bad


def check_repeats(reports: list[str]) -> list[str]:
    """Every pass of a run must serialise the same campaign report."""
    return [
        f"pass {i}: report differs from pass 0"
        for i, text in enumerate(reports)
        if text != reports[0]
    ]


def check_clifford(row: dict) -> list[str]:
    """One rung: count 2nu+1, exact verification, and the three identities
    measured through `apply` on a random unit vector."""
    n = row["n"]
    bad = []
    if row["count"] != 2 * two_adic(n + 1) + 1:
        bad.append(f"n={n}: {row['count']} matrices, expected {2 * two_adic(n + 1) + 1}")
    if not row["verified"]:
        bad.append(f"n={n}: verify_family reports failures")
    for name in ("square", "gram", "conj"):
        if not row[name] <= TOL:
            bad.append(f"n={n}: {name} residual {row[name]:.3e} > {TOL}")
    return bad


def check_obstruction(row: dict, expected_w: frozenset[str]) -> list[str]:
    """One (m, n): the bound against the closed form, w_dim = 0, and w(Q)."""
    m, n = row["m"], row["n"]
    bad = []
    pspan = closed_form(m, n)
    if row["bound"] < pspan or (n % 2 == 0 and row["bound"] != pspan):
        bad.append(f"Q({m},{n}): bound {row['bound']} vs pspan {pspan}")
    if not row["top_zero"]:
        bad.append(f"Q({m},{n}): w_dim != 0")
    got = frozenset(row["w"].split(" + ")) if row["w"] != "0" else frozenset()
    if got != expected_w:
        bad.append(f"Q({m},{n}): w(Q) differs in {sorted(got ^ expected_w)}")
    return bad
