"""One pass: a fresh interpreter that imports wallspan and runs one workload.

    python3 perfbench/worker.py '<json: workload, seed, quick, trace, spawned, out>'

`spawned` is the CLOCK_MONOTONIC time at which the parent started this
interpreter, so set-up time covers interpreter start-up and `import
wallspan`; the workload `setup` stops there.  Each input is timed on its
own, between two timings of the workload's reference loop, which does not
call wallspan; a set-up interpreter times the calls loop after its import.
Correctness data is collected outside the timed regions, and printed with
the timings as one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import oracle

# workload inputs; the quick variants are for the self-tests
ACCEPT_GRID = {"m_values": (1, 2, 3, 4), "n_values": tuple(range(9)), "samples_per_case": 100}
ACCEPT_QUICK = {"m_values": (1, 2), "n_values": (0, 1, 2, 3), "samples_per_case": 4}
# n + 1 = 2^k for k = 1..7, then n + 1 = 2*3, 4*5 and 32*3
CLIFFORD_RUNGS = (1, 3, 7, 15, 31, 63, 127, 5, 19, 95)
CLIFFORD_QUICK = (1, 3, 5)
OBSTRUCTION_M = (1, 4, 10)
# even n; nu(n+1) = 1; nu(n+1) = 2, 3, 4
OBSTRUCTION_N = (2, 24, 32, 5, 3, 7, 15)
OBSTRUCTION_QUICK = ((1, 2), (2, 3), (2, 5))

OBSTRUCTION_CASES = tuple((m, n) for m in OBSTRUCTION_M for n in OBSTRUCTION_N)

# each reference loop takes about REF_S seconds on the reference host
# (Xeon Sapphire Rapids, 2 vCPUs) when it is quiet
REF_S = 0.010


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calls_loop() -> None:
    """2,500 rounds of 8x8 numpy calls: interpreter-bound, like the field and ring code."""
    import numpy as np

    a = np.arange(64, dtype=float).reshape(8, 8)
    z = a
    for _ in range(2500):
        z = (z @ a) * 1e-3 + a
        float(np.abs(z).max())


def products_loop() -> None:
    """Five 128x128 int64 matrix products, like the dense Clifford checks."""
    import numpy as np

    i = np.arange(128)
    m = (np.outer(i, i) % 3 - 1).astype(np.int64)
    for _ in range(5):
        (m @ m).any()


# the reference loop that each workload's inputs are timed next to
REFERENCE = {"accept-grid": calls_loop, "clifford-ladder": products_loop, "obstruction-sweep": calls_loop}


def reference(loop=calls_loop) -> float:
    """Seconds taken by one call of `loop`, which calls no wallspan code.

    The host's CPU speed moves by up to 2x for seconds to minutes at a
    time, and the loops slow with wallspan's own code, so the parent
    divides each input's time by the reference timed next to it.
    """
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


class Timings:
    """Each input's time, and the mean of the references timed before and after it."""

    def __init__(self, loop) -> None:
        self.loop = loop
        reference(loop)  # the first call warms numpy's dispatch
        self.last = reference(loop)
        self.ref_s = 0.0  # time spent in add(), which accept-grid leaves out of `rest`
        self.times: dict[str, float] = {}
        self.refs: dict[str, float] = {}

    def add(self, key: str, elapsed: float) -> None:
        t0 = time.perf_counter()
        after = reference(self.loop)
        self.ref_s += time.perf_counter() - t0
        self.times[key] = elapsed
        self.refs[key] = (self.last + after) / 2
        self.last = after


def accept_grid(ws, seed: int, quick: bool, timings: Timings):
    """One run_acceptance() call; each run_case is an input, the rest is one more."""
    from wallspan import harness

    run_case = harness.run_case

    def timed_case(m, n, config):
        t0 = time.perf_counter()
        out = run_case(m, n, config)
        timings.add(f"m{m} n{n}", time.perf_counter() - t0)
        return out

    harness.run_case = timed_case
    config = harness.CampaignConfig(seed=seed, **(ACCEPT_QUICK if quick else ACCEPT_GRID))
    t0 = time.perf_counter()
    result = ws.run_acceptance(config)
    total = time.perf_counter() - t0
    harness.run_case = run_case
    cases = sum(timings.times.values())
    refs = sorted(timings.refs.values())
    timings.times["rest"] = total - cases - timings.ref_s
    timings.refs["rest"] = refs[len(refs) // 2]

    def outputs():
        return {"verdict": result.passed, "report": harness.report_to_json(result.campaign.report)}

    return outputs


def clifford_ladder(ws, seed: int, quick: bool, timings: Timings):
    """build_family + verify_family per rung."""
    built = {}
    for n in CLIFFORD_QUICK if quick else CLIFFORD_RUNGS:
        t0 = time.perf_counter()
        family = ws.clifford.build_family(n)
        report = ws.clifford.verify_family(family)
        timings.add(f"n{n}", time.perf_counter() - t0)
        built[n] = (family, report)

    def outputs():
        return [_clifford_row(seed, n, family, report) for n, (family, report) in built.items()]

    return outputs


def _clifford_row(seed: int, n: int, family, report) -> dict:
    """The three identities measured through `apply` on a seeded random unit z."""
    import numpy as np

    rng = np.random.default_rng([seed, n])
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    z /= np.linalg.norm(z)
    images = [a.apply(z) for a in family.matrices]
    square = conj = gram = 0.0
    for j, (a, az) in enumerate(zip(family.matrices, images), start=1):
        square = max(square, float(np.max(np.abs(a.apply(az) + z))))
        eps = oracle.clifford_sign(j, family.nu)
        conj = max(conj, float(np.max(np.abs(np.conj(a.apply(np.conj(z))) - eps * az))))
        for k, ak_z in enumerate(images, start=1):
            gram = max(gram, abs(np.vdot(az, ak_z).real - (j == k)))
    return {
        "n": n,
        "count": family.count,
        "verified": report.all_passed,
        "square": square,
        "gram": gram,
        "conj": conj,
    }


def obstruction_sweep(ws, seed: int, quick: bool, timings: Timings):
    """total_sw_wall + sw_upper_bound per (m, n)."""
    f2 = ws.f2cohomology
    found = []
    for m, n in OBSTRUCTION_QUICK if quick else OBSTRUCTION_CASES:
        p = ws.WallParams(m, n)
        t0 = time.perf_counter()
        w = f2.total_sw_wall(p)
        bound = f2.sw_upper_bound(p)
        timings.add(f"m{m} n{n}", time.perf_counter() - t0)
        found.append((p, w, bound))

    def outputs():
        return [
            {
                "m": p.m,
                "n": p.n,
                "bound": bound,
                "w": w.render(),
                "top_zero": w.component(p.dim).is_zero(),
            }
            for p, w, bound in found
        ]

    return outputs


WORKLOADS = {
    "accept-grid": accept_grid,
    "clifford-ladder": clifford_ladder,
    "obstruction-sweep": obstruction_sweep,
}


def main() -> None:
    args = json.loads(sys.argv[1])
    import wallspan as ws

    setup_s = _now() - args["spawned"]
    if args["workload"] == "setup":
        reference()  # the first call warms numpy's dispatch
        ref_s = (reference() + reference()) / 2
        sys.stdout.write(json.dumps({"setup_s": setup_s, "ref_s": ref_s}) + "\n")
        return
    timings = Timings(REFERENCE[args["workload"]])
    tracer = None
    if args["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs = WORKLOADS[args["workload"]](ws, args["seed"], args["quick"], timings)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        layers = tracer.metrics(CLIFFORD_RUNGS)
        tracer.dump(args["out"])
    result = {
        "setup_s": setup_s,
        "times": timings.times,
        "refs": timings.refs,
        "rss_mb": rss_mb,
        "layers": layers,
        "outputs": outputs(),
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
