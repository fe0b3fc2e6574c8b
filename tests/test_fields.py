"""Numerical field checks: tangency, signs, independence, representative freedom."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clifford_reference import with_matrices
from wallspan.clifford import build_family
from wallspan.fields import (
    TANGENCY_TOL,
    AmbientTangent,
    FieldBatch,
    InvolutionKind,
    PointBatch,
    TotalSpacePoint,
    apply_differential,
    apply_involution,
    check_well_defined,
    evaluate_batch,
    evaluate_field,
    expected_quasi_sign,
    independence_report,
    quasi_invariance_sign,
    quasi_invariance_signs,
    sample_batch,
    sample_point,
    stream,
    svd_rank,
    svd_ranks,
    tangency_residuals,
    tangency_residuals_batch,
    tangent_distance,
    tangent_matrix,
    well_defined_batch,
    xi_high,
    xi_low,
)

SIGMA, TAU = InvolutionKind.SIGMA, InvolutionKind.TAU

SMALL_GRID = [(m, n) for m in (1, 2, 3) for n in (0, 1, 2, 3)]


def _points(m, n, count):
    """`count` successive samples of case (m, n) at seed 42."""
    rng = stream(42, m, n)
    return [sample_point(n, m, rng) for _ in range(count)]


def _point(m, n):
    return _points(m, n, 1)[0]


# -- sampling ------------------------------------------------------------------


def test_sample_point_deterministic():
    a = sample_point(1, 1, stream(42, 1, 1))
    b = sample_point(1, 1, stream(42, 1, 1))
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.v, b.v)
    assert a.lam == b.lam


def test_sample_point_normalized():
    p = _point(3, 2)
    assert abs(np.vdot(p.z, p.z).real - 1) <= 1e-12
    assert abs(p.v @ p.v - 1) <= 1e-12
    assert abs(abs(p.lam) - 1) <= 1e-12


def test_sample_point_streams_independent():
    a, b = _points(1, 1, 2)
    assert not np.array_equal(a.z, b.z)
    c = sample_point(1, 1, stream(42, 1, 2))
    assert not np.array_equal(a.v, c.v)


def test_point_validation():
    with pytest.raises(ValueError):
        TotalSpacePoint(np.array([2.0 + 0j]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        TotalSpacePoint(np.array([1.0 + 0j]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        TotalSpacePoint(np.array([1.0 + 0j]), np.array([1.0]), 2.0)


# -- the batched sampler against the per-point reference ------------------------

DEFAULT_GRID = [(m, n) for m in (1, 2, 3, 4) for n in range(9)]


def _assert_same_bytes(batch, points):
    ref = PointBatch.stack(points)
    for name in ("z", "v", "lam"):
        got, want = getattr(batch, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", [42, 7919])
def test_sample_batch_matches_reference_bytes(seed):
    # long rows too: BLAS dot kernels unroll differently as the length grows
    for m, n in DEFAULT_GRID + [(16, 63), (16, 255)]:
        rng = stream(seed, m, n)
        _assert_same_bytes(sample_batch(n, m, seed, 100), [sample_point(n, m, rng) for _ in range(100)])


def test_sample_batch_single_sample():
    for seed, m, n in ((42, 1, 0), (7919, 4, 8), (10**30, 3, 5)):
        _assert_same_bytes(sample_batch(n, m, seed, 1), [sample_point(n, m, stream(seed, m, n))])


@pytest.mark.parametrize("seed,m,n", [(42, 1, 0), (7919, 4, 8), (2**32, 3, 5)])
def test_sample_batch_prefix_stable(seed, m, n):
    # sample i of a case is the last point of sample_batch(n, m, seed, i + 1)
    full = sample_batch(n, m, seed, 100)
    for k in (1, 2, 37, 99):
        head = sample_batch(n, m, seed, k)
        for name in ("z", "v", "lam"):
            assert getattr(head, name).tobytes() == getattr(full, name)[:k].tobytes(), (k, name)


GOLDEN_POINTS = {
    # (n, m, count): z, v, lam at seed 42
    (1, 1, 2): (
        [
            [0.6922513204638578 + 0.47157634738863097j, 0.49072454950526523 + 0.23998598795033174j],
            [0.4136238996057358 - 0.24308676027065426j, 0.8659765340149429 + 0.14109833163977517j],
        ],
        [[-0.9123248974633333, 0.40946707006610217], [-0.5077687943304312, -0.8614933844808212]],
        [-0.4753528392178463 - 0.8797952479114287j, 0.9940517532789268 - 0.10890873152824604j],
    ),
    # m != n, so swapping the key's m and n moves it
    (0, 2, 1): (
        [[0.46547569650949094 - 0.8850606623045701j]],
        [[0.8061631975836403, 0.2982224959582162, 0.5110423091742721]],
        [-0.9579073879167584 - 0.28707740450006275j],
    ),
}


@pytest.mark.parametrize("n,m,count", list(GOLDEN_POINTS))
def test_sample_batch_golden_points(n, m, count):
    # pins the seed-to-point map: any change to it moves these values
    batch = sample_batch(n, m, 42, count)
    for got, want in zip((batch.z, batch.v, batch.lam), GOLDEN_POINTS[n, m, count]):
        np.testing.assert_allclose(got, np.array(want), rtol=1e-15, atol=0)


def test_sample_batch_rejects_negative_seed():
    with pytest.raises(ValueError, match=">= 0"):
        sample_batch(1, 1, -1, 3)


@pytest.mark.parametrize(
    "slot,message",
    [("z", "z must be a unit vector"), ("v", "v must be a unit vector"), ("lam", "lambda must lie")],
)
def test_point_batch_check_unit(slot, message):
    batch = sample_batch(2, 3, 42, 5)
    batch.check_unit()
    bad = getattr(batch, slot).copy()
    bad[3] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match=f"sample 3: {message}"):
        replace(batch, **{slot: bad}).check_unit()
    bad[3] = np.nan
    with pytest.raises(ValueError, match=f"sample 3: {message}"):
        replace(batch, **{slot: bad}).check_unit()


# -- the two field constructions -------------------------------------------------


def test_xi_high_at_e1():
    # v = e_1: the coefficient <v, e_j> vanishes, so u = e_j and mu = 0
    p = TotalSpacePoint(np.array([1.0 + 0j]), np.array([1.0, 0.0, 0.0]), 1j)
    t = xi_high(2, p)
    assert np.allclose(t.u, [0.0, 1.0, 0.0]) and t.mu == 0


def test_xi_high_at_ej():
    p = TotalSpacePoint(np.array([1.0 + 0j]), np.array([0.0, 1.0, 0.0]), 1j)
    t = xi_high(2, p)
    assert np.allclose(t.u, 0.0)
    assert abs(t.mu - (-1j) * 1j) <= 1e-15  # -i <v,e_2> lam with lam = i


def test_xi_high_orthogonal_to_v():
    for m, n in SMALL_GRID:
        p = _point(m, n)
        for j in range(2, m + 2):
            assert abs(p.v @ xi_high(j, p).u) <= 1e-12


def test_xi_high_range():
    p = _point(2, 1)
    with pytest.raises(ValueError):
        xi_high(1, p)
    with pytest.raises(ValueError):
        xi_high(4, p)


def test_xi_low_n0_explicit():
    family = build_family(0)
    p = TotalSpacePoint(np.array([1.0 + 0j]), np.array([1.0, 0.0]), 1.0)
    t = xi_low(1, p, family)
    assert np.allclose(t.w, 0) and np.allclose(t.u, 0)
    assert abs(t.mu - (-1j)) <= 1e-15


def test_xi_low_horizontal():
    for m, n in SMALL_GRID:
        family = build_family(n)
        p = _point(m, n)
        for j in range(1, 2 * family.nu + 2):
            t = xi_low(j, p, family)
            assert abs(np.vdot(t.w, p.z)) <= 1e-10


def test_xi_low_u_is_real():
    # imag(i * beta) = Re(beta), which must vanish to 1e-12
    for m, n in SMALL_GRID:
        family = build_family(n)
        p = _point(m, n)
        for a in family.matrices:
            assert abs(np.vdot(a.apply(p.z), p.z).real) <= 1e-12  # beta_j(z)


def test_xi_low_dimension_mismatch():
    family = build_family(1)
    p = _point(1, 2)
    with pytest.raises(ValueError):
        xi_low(1, p, family)


# -- involutions and differentials -----------------------------------------------


def test_involutions_are_involutions():
    p = _point(2, 2)
    for kind in (SIGMA, TAU):
        q = apply_involution(kind, apply_involution(kind, p))
        assert np.array_equal(q.z, p.z)
        assert np.array_equal(q.v, p.v)
        assert q.lam == p.lam


def test_involutions_commute():
    p = _point(3, 1)
    a = apply_involution(SIGMA, apply_involution(TAU, p))
    b = apply_involution(TAU, apply_involution(SIGMA, p))
    assert np.array_equal(a.z, b.z) and np.array_equal(a.v, b.v) and a.lam == b.lam


def test_differentials():
    p = _point(2, 1)
    family = build_family(1)
    t = evaluate_field(1, p, family)
    # d(sigma) twice restores the tangent
    tt = apply_differential(SIGMA, apply_involution(SIGMA, p), apply_differential(SIGMA, p, t))
    assert np.array_equal(tt.w, t.w) and np.array_equal(tt.u, t.u) and tt.mu == t.mu
    # d(sigma) fixes the circle slot, d(tau) negates it
    assert apply_differential(SIGMA, p, t).mu == t.mu
    assert apply_differential(TAU, p, t).mu == -t.mu


# -- quasi-invariance -------------------------------------------------------------


@pytest.mark.parametrize("m,n", SMALL_GRID)
def test_sign_table(m, n):
    family = build_family(n)
    delta = 2 * family.nu + 1 + m
    for p in _points(m, n, 5):
        for j in range(1, delta + 1):
            for kind in (SIGMA, TAU):
                observed = quasi_invariance_sign(j, kind, p, family)
                assert observed is not None
                assert observed == expected_quasi_sign(j, kind, family.nu, m)


def test_high_field_signs_explicit():
    m, n = 3, 2
    family = build_family(n)
    low = 2 * family.nu + 1
    p = _point(m, n)
    for j in range(low + 1, low + m + 1):
        assert quasi_invariance_sign(j, SIGMA, p, family) == -1
    assert quasi_invariance_sign(low + m, TAU, p, family) == -1
    for j in range(low + 1, low + m):
        assert quasi_invariance_sign(j, TAU, p, family) == 1


def test_expected_sign_range():
    with pytest.raises(ValueError):
        expected_quasi_sign(0, SIGMA, 1, 2)
    with pytest.raises(ValueError):
        expected_quasi_sign(6, SIGMA, 1, 2)


def test_sign_table_m3_n1_frozen():
    # delta = 6: low fields j = 1..3 with eps = (-1, -1, +1); high fields
    # j = 4, 5 keep the tau sign, the last field j = 6 flips it
    expected_sigma = [-1, -1, 1, -1, -1, -1]
    expected_tau = [1, 1, 1, 1, 1, -1]
    assert [expected_quasi_sign(j, SIGMA, 1, 3) for j in range(1, 7)] == expected_sigma
    assert [expected_quasi_sign(j, TAU, 1, 3) for j in range(1, 7)] == expected_tau
    family = build_family(1)
    p = _point(3, 1)
    assert [quasi_invariance_sign(j, SIGMA, p, family) for j in range(1, 7)] == expected_sigma
    assert [quasi_invariance_sign(j, TAU, p, family) for j in range(1, 7)] == expected_tau


# -- representative independence ---------------------------------------------------


def test_well_defined_identity_representative():
    p = _point(1, 1)
    family = build_family(1)
    assert check_well_defined(1, p, family, 1.0)


def test_well_defined_eight_roots():
    roots = [np.exp(2j * np.pi * k / 8) for k in range(8)]
    for m, n in SMALL_GRID:
        family = build_family(n)
        delta = 2 * family.nu + 1 + m
        p = _point(m, n)
        for j in range(1, delta + 1):
            for omega in roots:
                assert check_well_defined(j, p, family, omega)


def test_well_defined_rejects_non_unit_omega():
    with pytest.raises(ValueError):
        check_well_defined(1, _point(1, 1), build_family(1), 2.0)


# -- tangency and independence -------------------------------------------------------


@pytest.mark.parametrize("m,n", SMALL_GRID)
def test_tangency_residuals(m, n):
    family = build_family(n)
    delta = 2 * family.nu + 1 + m
    for p in _points(m, n, 5):
        for j in range(1, delta + 1):
            res = tangency_residuals(p, evaluate_field(j, p, family))
            assert max(res) <= 1e-10


@pytest.mark.parametrize("m,n", SMALL_GRID)
def test_independence_full_rank(m, n):
    family = build_family(n)
    p = _point(m, n)
    report = independence_report(p, family)
    assert report.full_rank
    assert report.delta == 2 * family.nu + 1 + m
    assert report.min_relative_sv > 1e-8


def test_duplicated_row_drops_rank():
    m, n = 2, 1
    family = build_family(n)
    p = _point(m, n)
    delta = 2 * family.nu + 1 + m
    tangents = [evaluate_field(j, p, family) for j in range(1, delta + 1)]
    tangents[1] = tangents[0]
    rank, _ = svd_rank(tangent_matrix(tangents))
    assert rank == delta - 1


def test_q11_is_line_element_parallelizable_at_samples():
    # delta = 2 nu(2) + 1 + 1 = 4 = dim Q(1, 1)
    family = build_family(1)
    for p in _points(1, 1, 10):
        report = independence_report(p, family)
        assert report.delta == 4 and report.rank == 4


def test_evaluate_field_range():
    family = build_family(1)
    p = _point(2, 1)
    with pytest.raises(ValueError):
        evaluate_field(0, p, family)
    with pytest.raises(ValueError):
        evaluate_field(6, p, family)  # delta = 5 here


def test_tangent_negation():
    t = AmbientTangent(np.array([1j]), np.array([0.5, -0.5]), 2j)
    nt = -t
    assert nt.mu == -2j and np.allclose(nt.u, [-0.5, 0.5])


# -- batched engine against the per-point reference -----------------------------

# nu(n+1) = 0, 1, 2, 3 for n = 0, 1, 3, 7
ENGINE_GRID = [(m, n) for m in (1, 4) for n in (0, 1, 3, 7)]
ENGINE_SAMPLES = 6
EIGHTH_ROOTS = [np.exp(2j * np.pi * k / 8) for k in range(8)]


def _assert_engine_matches_reference(m, family):
    """Every (sample, j) of every batched check equals the per-point function."""
    n = family.n
    delta = family.count + m
    points = _points(m, n, ENGINE_SAMPLES)
    batch = PointBatch.stack(points)
    fields = evaluate_batch(batch, family)
    assert fields.w.shape == (ENGINE_SAMPLES, delta, n + 1)
    assert fields.u.shape == (ENGINE_SAMPLES, delta, m + 1)
    assert fields.mu.shape == (ENGINE_SAMPLES, delta)
    residuals = tangency_residuals_batch(batch, fields)
    signs = {kind: quasi_invariance_signs(kind, batch, fields, family) for kind in (SIGMA, TAU)}
    roots = [well_defined_batch(batch, fields, family, omega) for omega in EIGHTH_ROOTS]
    mats = fields.matrix()
    ranks, rel = svd_ranks(mats)
    for s, p in enumerate(points):
        tangents = [evaluate_field(j, p, family) for j in range(1, delta + 1)]
        assert np.max(np.abs(mats[s] - tangent_matrix(tangents))) <= 1e-12
        report = independence_report(p, family)
        assert ranks[s] == report.rank
        assert abs(rel[s] - report.min_relative_sv) <= 1e-12
        for j, t in enumerate(tangents, start=1):
            assert np.max(np.abs(fields.w[s, j - 1] - t.w)) <= 1e-12
            assert np.max(np.abs(fields.u[s, j - 1] - t.u)) <= 1e-12
            assert abs(fields.mu[s, j - 1] - t.mu) <= 1e-12
            for slot, value in enumerate(tangency_residuals(p, t)):
                assert abs(residuals[slot][s, j - 1] - value) <= 1e-12
            for kind in (SIGMA, TAU):
                assert signs[kind][s, j - 1] == (quasi_invariance_sign(j, kind, p, family) or 0)
            for omega, ok in zip(EIGHTH_ROOTS, roots):
                assert ok[s, j - 1] == check_well_defined(j, p, family, omega)
    return signs, roots


@pytest.mark.parametrize("m,n", ENGINE_GRID)
def test_batched_engine_matches_reference(m, n):
    _assert_engine_matches_reference(m, build_family(n))


def test_batched_engine_matches_reference_on_broken_family():
    # i*A_1 is Hermitian: its field leaves the tangent space and flips its
    # sigma-sign, so both paths must report the same missing signs
    family = build_family(3)
    broken = with_matrices(family, (family.matrices[0].times_i(),) + family.matrices[1:])
    signs, _ = _assert_engine_matches_reference(2, broken)
    assert (signs[SIGMA][:, 0] != expected_quasi_sign(1, SIGMA, family.nu, 2)).all()


def test_batched_engine_rejects_mismatched_family():
    batch = PointBatch.stack([_point(1, 2)])
    with pytest.raises(ValueError):
        evaluate_batch(batch, build_family(1))


def test_well_defined_batch_rejects_non_unit_omega():
    batch = PointBatch.stack([_point(1, 1)])
    family = build_family(1)
    with pytest.raises(ValueError):
        well_defined_batch(batch, evaluate_batch(batch, family), family, 2.0)


def test_svd_ranks_zero_stack():
    ranks, rel = svd_ranks(np.zeros((2, 3, 5)))
    assert ranks.tolist() == [0, 0] and rel.tolist() == [0.0, 0.0]


def test_svd_ranks_non_finite_matrix_is_rank_zero():
    mats = np.stack([np.eye(3, 5)] * 3)
    mats[1, 2, 4] = np.nan
    mats[2, 0, 0] = np.inf
    ranks, rel = svd_ranks(mats)
    assert ranks.tolist() == [3, 0, 0]
    assert rel[0] == 1.0 and np.isnan(rel[1:]).all()


# -- FieldBatch.within against tangent_distance ----------------------------------

_EDGES = [
    TANGENCY_TOL,
    -TANGENCY_TOL,
    np.nextafter(TANGENCY_TOL, np.inf),
    -np.nextafter(TANGENCY_TOL, np.inf),
    np.nan,
    np.inf,
    -np.inf,
]
# mostly within tol, so that whole (sample, field) rows pass as well as fail;
# b's entries keep a - b exact at the edges
_A_ENTRIES = st.one_of(st.just(0.0), st.floats(-TANGENCY_TOL, TANGENCY_TOL), st.sampled_from(_EDGES))
_B_ENTRIES = st.one_of(st.just(0.0), st.sampled_from([TANGENCY_TOL, np.nan, np.inf]))


def _draw_fields(data, entries, count, delta, size, sphere):
    def real(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=entries))

    def cplx(shape):
        out = real(shape).astype(np.complex128)  # not re + 1j*im, which turns inf into nan
        out.imag = real(shape)
        return out

    return FieldBatch(cplx((count, delta, size)), real((count, delta, sphere)), cplx((count, delta)))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_within_matches_tangent_distance(data, count, delta, size, sphere):
    # entries at tol, one ulp above it, NaN and +-inf; delta = 1 is in range
    a = _draw_fields(data, _A_ENTRIES, count, delta, size, sphere)
    b = _draw_fields(data, _B_ENTRIES, count, delta, size, sphere)
    with np.errstate(invalid="ignore"):  # inf - inf
        got = a.within(b, TANGENCY_TOL)
        assert got.shape == (count, delta) and got.dtype == bool
        for s in range(count):
            for j in range(delta):
                ta = AmbientTangent(a.w[s, j], a.u[s, j], a.mu[s, j])
                tb = AmbientTangent(b.w[s, j], b.u[s, j], b.mu[s, j])
                assert got[s, j] == (tangent_distance(ta, tb) <= TANGENCY_TOL), (s, j)
