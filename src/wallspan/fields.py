"""Numerical evaluation of the quasi-invariant vector fields on CP^n x S^m x S^1.

Points of CP^n x S^m x S^1 are represented upstairs as (z, v, lambda) with z
a unit vector in C^(n+1), v a unit vector in R^(m+1) and |lambda| = 1.
Tangent vectors are ambient triples (w, u, mu) with

    <z, w> = 0  (Hermitian),   <v, u> = 0,   lambda * conj(mu) in i*R;

w is the horizontal lift of a tangent vector to CP^n, so independence of
lifts is equivalent to independence downstairs and no quotient-space data
structure is needed.

Two commuting free involutions act:

    sigma([z], v, lambda) = ([conj z], -v, lambda)
    tau(  [z], v, lambda) = ([z], rho(v), -lambda)      (rho negates v_last)

and their quotient is the Wall manifold Q(m, n).  The module evaluates
delta = 2*nu(n+1) + m + 1 vector fields:

* the "low" fields, built from a Clifford family A_j via
  beta_j(z) = <z, A_j z>:

      xi_j = (A_j z + beta_j z,  i beta_j (e_1 - <v,e_1> v),  beta_j <v,e_1> lambda)

* the "high" fields, from the stable trivialisation of T(S^m x S^1):

      xi_(2nu+j) = (0,  e_j - <v,e_j> v,  -i <v,e_j> lambda),   j = 2..m+1

and checks tangency, representative-independence, the quasi-invariance
signs under both involutions, and linear independence via singular values.

It does so twice.  The per-point functions (`stream`, `sample_point`,
`xi_low`, `xi_high`, `evaluate_field`, `quasi_invariance_sign`,
`check_well_defined`, `tangency_residuals`, `independence_report`, ...) take
one point and one field at a time; they are the reference implementation.
The batched engine (`sample_batch`, `PointBatch`, `evaluate_batch`,
`quasi_invariance_signs`, `well_defined_batch`, `tangency_residuals_batch`,
`svd_ranks`) evaluates all delta fields at all S samples of a case as arrays,
w (S, delta, n+1), u (S, delta, m+1) and mu (S, delta), written in place into
one preallocated array each, and runs each check as whole-array work: the
fields are evaluated afresh at sigma(P), tau(P) and omega*z for each root
omega, and the ranks come from one stacked SVD.  A check compares two
evaluations with `FieldBatch.within`, |difference| <= tol slot by slot, which
is `tangent_distance(a, b) <= tol` at every (sample, field) and fails on NaN.
The images and the 8 roots are evaluated one call each, not stacked into one
call: stacking saved little in a cold run and raised a case's traced peak
memory from about 1 MB to 2.6 MB or more.  A sample whose tangent matrix is not finite
has rank 0 and never enters the SVD.  The campaign harness uses the engine;
the tests hold it to the reference within 1e-12.

Each case (m, n) draws its samples from one RNG stream, `stream(seed, m, n)`.
`sample_batch` takes the S points of a case in one standard_normal draw of
shape (S, 2(n+1) + m+1 + 2), one row per point: Re z, Im z, v and a Gaussian
pair (a, b) with lambda = (a + ib)/|a + ib|, uniform on S^1.  That is byte
for byte what S successive `sample_point` calls on the stream give.  The draw
is prefix-stable: the first k rows of an S-point draw are the k-point draw,
so sample i is the last point of `sample_batch(n, m, seed, i + 1)`.  The
norms are the dot products that `np.linalg.norm` takes, one per row, computed
as one stacked matmul (S, 1, k) @ (S, k, 1) on the same strided views of
Re z, Im z and v: that gives the bytes of the per-row dots, while a batched sum
of squares, or the same matmul on contiguous copies, rounds differently in the
last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clifford import CliffordFamily, predicted_sign

POINT_TOL = 1e-12
# The acceptance contract's pinned tolerances; no option or config field sets them.
TANGENCY_TOL = 1e-10
INVARIANCE_TOL = 1e-9
RANK_REL_TOL = 1e-8


class InvolutionKind(str, Enum):
    SIGMA = "sigma"
    TAU = "tau"


@dataclass(frozen=True)
class TotalSpacePoint:
    """A point (z, v, lambda) of S^(2n+1) x S^m x S^1, unit norms within 1e-12."""

    z: np.ndarray
    v: np.ndarray
    lam: complex

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=np.complex128)
        v = np.asarray(self.v, dtype=np.float64)
        lam = complex(self.lam)
        if z.ndim != 1 or v.ndim != 1 or z.size == 0 or v.size == 0:
            raise ValueError("z and v must be nonempty vectors")
        if abs(np.vdot(z, z).real - 1.0) > POINT_TOL:
            raise ValueError("z must be a unit vector")
        if abs(v @ v - 1.0) > POINT_TOL:
            raise ValueError("v must be a unit vector")
        if abs(abs(lam) - 1.0) > POINT_TOL:
            raise ValueError("lambda must lie on the unit circle")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.z.size - 1

    @property
    def m(self) -> int:
        return self.v.size - 1


@dataclass(frozen=True)
class AmbientTangent:
    """Ambient tangent triple (w, u, mu) anchored at some TotalSpacePoint."""

    w: np.ndarray
    u: np.ndarray
    mu: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.complex128))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64))
        object.__setattr__(self, "mu", complex(self.mu))

    def __neg__(self) -> AmbientTangent:
        return AmbientTangent(-self.w, -self.u, -self.mu)


def stream(seed: int, m: int, n: int) -> np.random.Generator:
    """The RNG stream of case (m, n), which draws all its samples in turn.

    (seed, m, n) always yields the same state.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(m, n))))


def sample_point(n: int, m: int, rng: np.random.Generator) -> TotalSpacePoint:
    """Rotation-invariant sample: normalised Gaussian z, v and lambda = (a + ib)/|a + ib|.

    The per-point reference for `sample_batch`: z, v, then (a, b) are one row of its draw.
    """
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    z /= np.linalg.norm(z)
    v = rng.standard_normal(m + 1)
    v /= np.linalg.norm(v)
    a, b = rng.standard_normal(2)
    r = np.hypot(a, b)
    return TotalSpacePoint(z, v, complex(a / r, b / r))


def xi_high(j: int, p: TotalSpacePoint) -> AmbientTangent:
    """Field from the stable trivialisation of TS^m, for j = 2, ..., m+1."""
    if not 2 <= j <= p.m + 1:
        raise ValueError(f"need 2 <= j <= m+1 = {p.m + 1}, got j = {j}")
    coeff = p.v[j - 1]  # <v, e_j>
    e = np.zeros(p.m + 1)
    e[j - 1] = 1.0
    return AmbientTangent(
        w=np.zeros(p.n + 1, dtype=np.complex128),
        u=e - coeff * p.v,
        mu=-1j * coeff * p.lam,
    )


def xi_low(j: int, p: TotalSpacePoint, family: CliffordFamily) -> AmbientTangent:
    """Field from the j-th Clifford automorphism, for j = 1, ..., 2*nu+1.

    i*beta_j(z) is real because beta_j is purely imaginary; its real part is
    taken so that u is an exactly real vector.
    """
    if family.n != p.n:
        raise ValueError(f"family is for n = {family.n}, point has n = {p.n}")
    if not 1 <= j <= 2 * family.nu + 1:
        raise ValueError(f"need 1 <= j <= {2 * family.nu + 1}, got j = {j}")
    a = family.matrices[j - 1]
    az = a.apply(p.z)
    b = complex(np.vdot(az, p.z))  # beta_j(z)
    t = p.v[0]  # <v, e_1>
    e1 = np.zeros(p.m + 1)
    e1[0] = 1.0
    return AmbientTangent(
        w=az + b * p.z,
        u=(1j * b).real * (e1 - t * p.v),
        mu=b * t * p.lam,
    )


def evaluate_field(j: int, p: TotalSpacePoint, family: CliffordFamily) -> AmbientTangent:
    """The j-th of the delta = 2*nu + 1 + m fields, low fields first."""
    low_count = 2 * family.nu + 1
    delta = low_count + p.m
    if not 1 <= j <= delta:
        raise ValueError(f"need 1 <= j <= delta = {delta}, got j = {j}")
    if j <= low_count:
        return xi_low(j, p, family)
    return xi_high(j - low_count + 1, p)


def reflect_last(v: np.ndarray) -> np.ndarray:
    out = np.array(v)
    out[-1] = -out[-1]
    return out


def apply_involution(kind: InvolutionKind, p: TotalSpacePoint) -> TotalSpacePoint:
    if kind is InvolutionKind.SIGMA:
        return TotalSpacePoint(np.conj(p.z), -p.v, p.lam)
    return TotalSpacePoint(p.z, reflect_last(p.v), -p.lam)


def apply_differential(kind: InvolutionKind, p: TotalSpacePoint, t: AmbientTangent) -> AmbientTangent:
    """Pushforward of t along the involution; anchored at apply_involution(kind, p)."""
    if kind is InvolutionKind.SIGMA:
        return AmbientTangent(np.conj(t.w), -t.u, t.mu)
    return AmbientTangent(t.w, reflect_last(t.u), -t.mu)


def tangent_distance(a: AmbientTangent, b: AmbientTangent) -> float:
    """Largest componentwise deviation across the three slots; NaN if any is NaN."""
    return float(np.max([np.max(np.abs(a.w - b.w)), np.max(np.abs(a.u - b.u)), abs(a.mu - b.mu)]))


def tangency_residuals(p: TotalSpacePoint, t: AmbientTangent) -> tuple[float, float, float]:
    """(|<z,w>|, |<v,u>|, |Re(lambda conj(mu))|) — all ~0 for genuine tangents."""
    return (
        abs(complex(np.vdot(t.w, p.z))),
        abs(float(p.v @ t.u)),
        abs((p.lam * t.mu.conjugate()).real),
    )


def check_well_defined(
    j: int,
    p: TotalSpacePoint,
    family: CliffordFamily,
    omega: complex,
) -> bool:
    """Representative independence: moving z to omega*z must scale w by omega
    and leave (u, mu) unchanged, i.e. [omega z, omega w] = [z, w] in T CP^n,
    within TANGENCY_TOL."""
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > POINT_TOL:
        raise ValueError("omega must lie on the unit circle")
    base = evaluate_field(j, p, family)
    moved = evaluate_field(j, TotalSpacePoint(omega * p.z, p.v, p.lam), family)
    expected = AmbientTangent(omega * base.w, base.u, base.mu)
    return tangent_distance(moved, expected) <= TANGENCY_TOL


def quasi_invariance_sign(
    j: int, kind: InvolutionKind, p: TotalSpacePoint, family: CliffordFamily
) -> int | None:
    """The sign s with d(inv) o xi_j = s * xi_j o inv at p, or None on failure.

    Both sides are anchored at the same representative of the image point,
    so the comparison is direct componentwise equality within INVARIANCE_TOL.
    """
    pushed = apply_differential(kind, p, evaluate_field(j, p, family))
    there = evaluate_field(j, apply_involution(kind, p), family)
    if tangent_distance(pushed, there) <= INVARIANCE_TOL:
        return 1
    if tangent_distance(pushed, -there) <= INVARIANCE_TOL:
        return -1
    return None


def expected_quasi_sign(j: int, kind: InvolutionKind, nu_value: int, m: int) -> int:
    """The point-independent sign table.

    Low fields (j <= 2*nu+1): sigma-sign eps_j, tau-sign +1.  High fields:
    sigma-sign -1 for all; tau-sign +1 except -1 for the last field, whose
    sphere direction is negated by the reflection.
    """
    low_count = 2 * nu_value + 1
    delta = low_count + m
    if not 1 <= j <= delta:
        raise ValueError(f"need 1 <= j <= delta = {delta}, got j = {j}")
    if j <= low_count:
        return predicted_sign(j, nu_value) if kind is InvolutionKind.SIGMA else 1
    if kind is InvolutionKind.SIGMA:
        return -1
    return -1 if j == delta else 1


def tangent_matrix(tangents: list[AmbientTangent]) -> np.ndarray:
    """Stack tangents as real rows [Re w | Im w | u | Re mu | Im mu]."""
    return np.array(
        [
            np.concatenate([t.w.real, t.w.imag, t.u, [t.mu.real, t.mu.imag]])
            for t in tangents
        ]
    )


def svd_rank(mat: np.ndarray) -> tuple[int, float]:
    """(rank, smallest/largest singular value), counting singular values
    above RANK_REL_TOL times the largest."""
    sv = np.linalg.svd(mat, compute_uv=False)
    top = float(sv[0])
    if top == 0.0:
        return 0, 0.0
    return int(np.sum(sv > RANK_REL_TOL * top)), float(sv[-1] / top)


@dataclass(frozen=True)
class IndependenceReport:
    rank: int
    delta: int
    min_relative_sv: float

    @property
    def full_rank(self) -> bool:
        return self.rank == self.delta


def independence_report(p: TotalSpacePoint, family: CliffordFamily) -> IndependenceReport:
    """Rank of the full field family at p, certified by singular values."""
    delta = 2 * family.nu + 1 + p.m
    mat = tangent_matrix([evaluate_field(j, p, family) for j in range(1, delta + 1)])
    rank, min_rel = svd_rank(mat)
    return IndependenceReport(rank=rank, delta=delta, min_relative_sv=min_rel)


# -- batched engine ------------------------------------------------------------
#
# Each check evaluates the fields afresh at the moved or involuted points;
# nothing is derived algebraically from the base fields, so a field that is
# not quasi-invariant or not representative-independent is caught.


@dataclass(frozen=True)
class PointBatch:
    """S points stacked: z (S, n+1) complex, v (S, m+1) real, lam (S,) complex."""

    z: np.ndarray
    v: np.ndarray
    lam: np.ndarray

    @classmethod
    def stack(cls, points: list[TotalSpacePoint]) -> PointBatch:
        return cls(
            np.stack([p.z for p in points]),
            np.stack([p.v for p in points]),
            np.array([p.lam for p in points], dtype=np.complex128),
        )

    def check_unit(self) -> None:
        """TotalSpacePoint's unit checks at every sample, within POINT_TOL.

        Raises ValueError naming the first failing sample; NaN fails too.
        """
        checks = (
            ("z must be a unit vector", (self.z.real**2 + self.z.imag**2).sum(axis=1)),
            ("v must be a unit vector", (self.v**2).sum(axis=1)),
            ("lambda must lie on the unit circle", np.abs(self.lam)),
        )
        for message, norm in checks:
            bad = np.flatnonzero(~(np.abs(norm - 1.0) <= POINT_TOL))
            if bad.size:
                raise ValueError(f"sample {bad[0]}: {message}")


def sample_batch(n: int, m: int, seed: int, count: int) -> PointBatch:
    """The points of `count` successive sample_point(n, m, rng) calls on one
    rng = stream(seed, m, n), byte for byte.

    One standard_normal draw of shape (count, 2(n+1) + m+1 + 2) holds, per
    row, Re z, Im z, v and the pair (a, b) that lambda normalises.
    """
    draws = stream(seed, m, n).standard_normal((count, 2 * (n + 1) + m + 3))
    z = draws[:, : n + 1] + 1j * draws[:, n + 1 : 2 * n + 2]
    # Row-by-row dot products, stacked, on the same strided views that
    # np.linalg.norm's dots read: a copy or a batched sum rounds differently.
    zr, zi = z.real, z.imag
    z /= np.sqrt(zr[:, None, :] @ zr[:, :, None] + zi[:, None, :] @ zi[:, :, None])[:, 0]
    v = draws[:, 2 * n + 2 : -2]
    v = v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
    a, b = draws[:, -2], draws[:, -1]
    r = np.hypot(a, b)
    lam = (a / r).astype(np.complex128)
    lam.imag = b / r
    points = PointBatch(z, v, lam)
    points.check_unit()
    return points


@dataclass(frozen=True)
class FieldBatch:
    """All delta fields at S points: w (S, delta, n+1), u (S, delta, m+1), mu (S, delta)."""

    w: np.ndarray
    u: np.ndarray
    mu: np.ndarray

    def within(self, other: FieldBatch, tol: float) -> np.ndarray:
        """tangent_distance(self, other) <= tol for every (sample, field), shape (S, delta)."""
        return _all_within(self.w - other.w, self.u - other.u, self.mu - other.mu, tol)

    def matrix(self) -> np.ndarray:
        """tangent_matrix for every sample, shape (S, delta, 2(n+1)+m+3)."""
        return np.concatenate(
            [self.w.real, self.w.imag, self.u, self.mu.real[..., None], self.mu.imag[..., None]],
            axis=-1,
        )


def _all_within(dw: np.ndarray, du: np.ndarray, dmu: np.ndarray, tol: float) -> np.ndarray:
    """Every |entry| of the slot differences <= tol, per (sample, field); NaN fails."""
    return (np.abs(dw) <= tol).all(axis=-1) & (np.abs(du) <= tol).all(axis=-1) & (np.abs(dmu) <= tol)


def evaluate_batch(points: PointBatch, family: CliffordFamily) -> FieldBatch:
    """evaluate_field for every field j = 1..delta at every point, low fields first."""
    z, v, lam = points.z, points.v, points.lam
    count, size = z.shape
    if family.n != size - 1:
        raise ValueError(f"family is for n = {family.n}, points have n = {size - 1}")
    low = family.count
    delta = low + v.shape[1] - 1
    w = np.zeros((count, delta, size), dtype=np.complex128)  # high fields: w = 0
    u = np.empty((count, delta, v.shape[1]))
    mu = np.empty((count, delta), dtype=np.complex128)

    az = np.multiply(family.units, z[:, family.perm], out=w[:, :low])  # A_j z at every sample
    b = np.einsum("sja,sa->sj", az.conj(), z)  # beta_j(z)
    eye = np.eye(v.shape[1])
    t = v[:, :1]  # <v, e_1>
    az += b[..., None] * z[:, None, :]
    np.multiply((1j * b).real[..., None], (eye[0] - t * v)[:, None, :], out=u[:, :low])
    np.multiply(b * t, lam[:, None], out=mu[:, :low])

    coeff = v[:, 1:]  # <v, e_j>, j = 2..m+1
    np.subtract(eye[1:], coeff[..., None] * v[:, None, :], out=u[:, low:])
    np.multiply(-1j * coeff, lam[:, None], out=mu[:, low:])
    return FieldBatch(w, u, mu)


def tangency_residuals_batch(points: PointBatch, fields: FieldBatch) -> tuple[np.ndarray, ...]:
    """tangency_residuals for every (sample, field): three arrays of shape (S, delta)."""
    return (
        np.abs(np.einsum("sja,sa->sj", fields.w.conj(), points.z)),
        np.abs(np.einsum("sja,sa->sj", fields.u, points.v)),
        np.abs((points.lam[:, None] * fields.mu.conj()).real),
    )


def involution_batch(kind: InvolutionKind, points: PointBatch) -> PointBatch:
    """apply_involution at every point."""
    if kind is InvolutionKind.SIGMA:
        return PointBatch(np.conj(points.z), -points.v, points.lam)
    v = points.v.copy()
    v[:, -1] = -v[:, -1]
    return PointBatch(points.z, v, -points.lam)


def differential_batch(kind: InvolutionKind, fields: FieldBatch) -> FieldBatch:
    """apply_differential for every (sample, field)."""
    if kind is InvolutionKind.SIGMA:
        return FieldBatch(np.conj(fields.w), -fields.u, fields.mu)
    u = fields.u.copy()
    u[..., -1] = -u[..., -1]
    return FieldBatch(fields.w, u, -fields.mu)


def quasi_invariance_signs(
    kind: InvolutionKind, points: PointBatch, fields: FieldBatch, family: CliffordFamily
) -> np.ndarray:
    """quasi_invariance_sign for every (sample, field), with 0 for no sign.

    `fields` must be evaluate_batch(points, family); the fields are evaluated
    again at the image points.
    """
    pushed = differential_batch(kind, fields)
    there = evaluate_batch(involution_batch(kind, points), family)
    plus = pushed.within(there, INVARIANCE_TOL)
    # pushed - (-there) is pushed + there exactly, so no negated copy is needed
    minus = _all_within(pushed.w + there.w, pushed.u + there.u, pushed.mu + there.mu, INVARIANCE_TOL)
    return np.where(plus, 1, np.where(minus, -1, 0))


def well_defined_batch(
    points: PointBatch, fields: FieldBatch, family: CliffordFamily, omega: complex
) -> np.ndarray:
    """check_well_defined for every (sample, field), as a bool array (S, delta).

    `fields` must be evaluate_batch(points, family); the fields are evaluated
    again at omega * z.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > POINT_TOL:
        raise ValueError("omega must lie on the unit circle")
    moved = evaluate_batch(PointBatch(omega * points.z, points.v, points.lam), family)
    expected = FieldBatch(omega * fields.w, fields.u, fields.mu)
    return moved.within(expected, TANGENCY_TOL)


def svd_ranks(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """svd_rank for a stack of matrices: (ranks, smallest/largest singular values).

    A matrix with a non-finite entry never enters the SVD: its rank is 0 and
    its ratio NaN.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    sv = np.linalg.svd(mats[finite], compute_uv=False)
    top = sv[:, 0]
    ranks = np.zeros(len(mats), dtype=np.intp)
    ranks[finite] = np.sum(sv > RANK_REL_TOL * top[:, None], axis=-1)  # 0 where top == 0
    rel = np.full(len(mats), np.nan)
    with np.errstate(invalid="ignore"):
        rel[finite] = np.where(top == 0.0, 0.0, sv[:, -1] / top)
    return ranks, rel
