"""Numerical field checks: tangency, signs, independence, representative freedom."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifford_reference import times_i
from wallspan.clifford import build_family
from wallspan.fields import (
    TANGENCY_TOL,
    AmbientTangent,
    FieldBatch,
    InvolutionKind,
    PointBatch,
    TotalSpacePoint,
    _all_within,
    apply_differential,
    apply_involution,
    check_well_defined,
    equivariance_signs,
    evaluate_batch,
    evaluate_field,
    expected_quasi_sign,
    gram_ranks,
    quasi_invariance_sign,
    sample_batch,
    sample_point,
    stream,
    svd_rank,
    svd_ranks,
    tangency_residuals,
    tangency_residuals_batch,
    tangent_distance,
    tangent_matrix,
    xi_high,
    xi_low,
)
from wallspan.harness import CampaignConfig

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


def _stack(points):
    """The points as one PointBatch, samples first."""
    return PointBatch(*(np.stack([getattr(p, name) for p in points]) for name in ("z", "v", "lam")))


def _assert_same_bytes(batch, points):
    ref = _stack(points)
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
        batch._replace(**{slot: bad}).check_unit()
    bad[3] = np.nan
    with pytest.raises(ValueError, match=f"sample 3: {message}"):
        batch._replace(**{slot: bad}).check_unit()


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
    delta = 2 * family.nu + 1 + m
    rank, min_relative_sv = svd_rank(tangent_matrix([evaluate_field(j, p, family) for j in range(1, delta + 1)]))
    assert rank == delta
    assert min_relative_sv > 1e-8


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
        tangents = [evaluate_field(j, p, family) for j in range(1, 5)]
        assert svd_rank(tangent_matrix(tangents))[0] == 4


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
    """Every (sample, j) of every batched check equals the per-point function.

    The reference spells out each differential on its own (apply_differential,
    the omega scaling in check_well_defined), so this also checks that each map
    is its own differential, which the engine assumes.
    """
    n = family.n
    delta = family.count + m
    points = _points(m, n, ENGINE_SAMPLES)
    batch = _stack(points)
    fields = evaluate_batch(batch, family)
    assert fields.w.shape == (ENGINE_SAMPLES, delta, n + 1)
    assert fields.u.shape == (ENGINE_SAMPLES, delta, m + 1)
    assert fields.mu.shape == (ENGINE_SAMPLES, delta)
    residuals = tangency_residuals_batch(batch, fields)
    signs = {kind: equivariance_signs(kind, batch, fields, family) for kind in (SIGMA, TAU)}
    roots = [equivariance_signs(omega, batch, fields, family) for omega in EIGHTH_ROOTS]
    mats = fields.matrix()
    ranks, rel = svd_ranks(mats)
    by_svd = _assert_gram_ranks_match_svd(mats)
    for s, p in enumerate(points):
        tangents = [evaluate_field(j, p, family) for j in range(1, delta + 1)]
        mat = tangent_matrix(tangents)
        assert np.max(np.abs(mats[s] - mat)) <= 1e-12
        rank, min_relative_sv = svd_rank(mat)
        assert ranks[s] == rank
        assert abs(rel[s] - min_relative_sv) <= 1e-12
        for j, t in enumerate(tangents, start=1):
            assert np.max(np.abs(fields.w[s, j - 1] - t.w)) <= 1e-12
            assert np.max(np.abs(fields.u[s, j - 1] - t.u)) <= 1e-12
            assert abs(fields.mu[s, j - 1] - t.mu) <= 1e-12
            for slot, value in enumerate(tangency_residuals(p, t)):
                assert abs(residuals[slot][s, j - 1] - value) <= 1e-12
            for kind in (SIGMA, TAU):
                assert signs[kind][s, j - 1] == (quasi_invariance_sign(j, kind, p, family) or 0)
            for omega, root_signs in zip(EIGHTH_ROOTS, roots):
                assert (root_signs[s, j - 1] == 1) == check_well_defined(j, p, family, omega)
    return signs, roots, by_svd


@pytest.mark.parametrize("m,n", ENGINE_GRID)
def test_batched_engine_matches_reference(m, n):
    _assert_engine_matches_reference(m, build_family(n))


def test_batched_engine_matches_reference_on_broken_family():
    # i*A_1 is Hermitian: its field leaves the tangent space and flips its
    # sigma-sign, so both paths must report the same missing signs
    family = build_family(3)
    broken = times_i(family, 1)
    signs, _, by_svd = _assert_engine_matches_reference(2, broken)
    assert (signs[SIGMA][:, 0] != expected_quasi_sign(1, SIGMA, family.nu, 2)).all()
    assert by_svd.all()  # i*A_1 z is not orthogonal to the other fields: |G - I| is far from 0


def test_batched_engine_rejects_mismatched_family():
    batch = _stack([_point(1, 2)])
    with pytest.raises(ValueError):
        evaluate_batch(batch, build_family(1))


def test_equivariance_signs_rejects_non_unit_omega():
    batch = _stack([_point(1, 1)])
    family = build_family(1)
    with pytest.raises(ValueError):
        equivariance_signs(2.0, batch, evaluate_batch(batch, family), family)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ENGINE_GRID), st.integers(0, 2**32 - 1), st.data())
def test_negated_field_flips_only_its_sign(case, seed, data):
    # -xi_j is as equivariant as xi_j with the opposite sign: under every root
    # this takes the minus path, which a plus-only check would report as 0
    m, n = case
    family = build_family(n)
    batch = sample_batch(n, m, seed, 3)
    fields = evaluate_batch(batch, family)
    j = data.draw(st.integers(0, family.count + m - 1), label="field index")
    w, u, mu = fields.w.copy(), fields.u.copy(), fields.mu.copy()
    w[:, j], u[:, j], mu[:, j] = -w[:, j], -u[:, j], -mu[:, j]
    for g in (SIGMA, TAU, *EIGHTH_ROOTS):
        expected = equivariance_signs(g, batch, fields, family)
        assert (expected != 0).all()
        assert isinstance(g, InvolutionKind) or (expected == 1).all()
        expected[:, j] *= -1
        assert np.array_equal(equivariance_signs(g, batch, FieldBatch(w, u, mu), family), expected), g


def test_batch_arrays_are_stored_samples_last():
    # public (S, ...) shapes over storage whose sample axis is the last, contiguous one
    for m, n in ENGINE_GRID:
        points = sample_batch(n, m, 42, 7)
        fields = evaluate_batch(points, build_family(n))
        delta = fields.mu.shape[1]
        shapes = {
            "z": (points.z, (7, n + 1)),
            "v": (points.v, (7, m + 1)),
            "w": (fields.w, (7, delta, n + 1)),
            "u": (fields.u, (7, delta, m + 1)),
            "mu": (fields.mu, (7, delta)),
        }
        for name, (array, shape) in shapes.items():
            assert array.shape == shape, (m, n, name)
            assert array.strides[0] == array.itemsize, (m, n, name)


def test_tangency_residuals_independent_of_memory_layout():
    # einsum sums in memory order: on the samples-last arrays the u.v residual
    # differs from the C-ordered one in its last bits unless the engine copies
    config = CampaignConfig()
    for m, n in itertools.product(config.m_values, config.n_values):
        points = sample_batch(n, m, config.seed, config.samples_per_case)
        fields = evaluate_batch(points, build_family(n))
        c_points = PointBatch(*map(np.ascontiguousarray, (points.z, points.v, points.lam)))
        c_fields = FieldBatch(*map(np.ascontiguousarray, (fields.w, fields.u, fields.mu)))
        got = tangency_residuals_batch(points, fields)
        expected = tangency_residuals_batch(c_points, c_fields)
        for slot, (a, b) in enumerate(zip(got, expected)):
            assert a.tobytes() == b.tobytes(), (m, n, slot)


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
    ranks, rel, deviation, by_svd = gram_ranks(mats)
    assert ranks.tolist() == [3, 0, 0] and by_svd.tolist() == [False, True, True]
    assert 0.999 < rel[0] <= 1.0 and np.isnan(rel[1:]).all()
    assert deviation[0] == 0.0 and np.isnan(deviation[1:]).all()


# -- criterion 3 from the Gram matrix, against the SVD ----------------------------


def _assert_gram_ranks_match_svd(mats):
    """gram_ranks against svd_ranks on one stack; returns which samples took the SVD.

    Every rank is the SVD's; a fallback sample carries the SVD's ratio byte for
    byte, and a Gram-decided one a bound that the SVD's ratio does not undercut.
    """
    ranks, rel, deviation, by_svd = gram_ranks(mats)
    svd_rank_of, svd_rel = svd_ranks(mats)
    assert np.array_equal(ranks, svd_rank_of)
    assert rel[by_svd].tobytes() == svd_rel[by_svd].tobytes()
    assert (ranks[~by_svd] == mats.shape[1]).all()
    assert (rel[~by_svd] <= svd_rel[~by_svd]).all()
    assert (deviation[~by_svd] < 0.5 / mats.shape[1]).all()
    assert np.array_equal(np.isnan(deviation), ~np.isfinite(mats).all(axis=(1, 2)))
    return by_svd


@pytest.mark.parametrize("seed", [42, 7919])
def test_gram_ranks_decide_the_default_grid(seed):
    # the default grid: every sample decided by the Gram bound, every rank the SVD's
    config = CampaignConfig(seed=seed)
    for m, n in itertools.product(config.m_values, config.n_values):
        points = sample_batch(n, m, seed, config.samples_per_case)
        by_svd = _assert_gram_ranks_match_svd(evaluate_batch(points, build_family(n)).matrix())
        assert not by_svd.any(), (m, n)


def test_gram_ranks_fall_back_on_broken_stacks():
    # a duplicated row and a zero row drop the rank; a row scaled by 2 keeps full
    # rank but is not orthonormal: all three take the SVD, the rest do not
    mats = evaluate_batch(sample_batch(3, 2, 42, 5), build_family(3)).matrix()
    mats[0, 1] = mats[0, 0]
    mats[1, 2] = 0.0
    mats[2, 0] *= 2.0
    by_svd = _assert_gram_ranks_match_svd(mats)
    assert by_svd.tolist() == [True, True, True, False, False]
    assert gram_ranks(mats)[0].tolist() == [6, 6, 7, 7, 7]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_gram_bound_never_claims_more_than_the_svd(delta, extra, seed):
    # orthonormal rows plus noise whose size straddles delta*eps = 1/2: wherever
    # the bound decides, the SVD finds rank delta and a ratio at least the bound
    rng = np.random.default_rng(seed)
    width = delta + extra
    q = np.linalg.qr(rng.standard_normal((64, width, delta)))[0].transpose(0, 2, 1)
    scale = 10.0 ** rng.uniform(-2.5, 0.0, (64, 1, 1)) / delta
    mats = q + scale * rng.standard_normal(q.shape)
    by_svd = _assert_gram_ranks_match_svd(mats)
    assert by_svd.any() and not by_svd.all()


# -- the engine's one comparison, _all_within, against tangent_distance -----------

# a's edge values: zero, the tolerance, one ulp above it, NaN and +-inf; b's keep a - b
# exact at the edges
_A_EDGES = np.array([0.0, -0.0, TANGENCY_TOL, np.nextafter(TANGENCY_TOL, np.inf), np.nan, np.inf])
_A_EDGES = np.concatenate([_A_EDGES, -_A_EDGES[2:]])
_B_EDGES = np.array([0.0, TANGENCY_TOL, np.nan, np.inf])
_SIZES = (1, 2, 3)  # count, delta, size and sphere; delta = 1 is in range


def _tangents(x, size):
    """(w, u, mu) from real entries laid out per (sample, field) as Re w_0, Im w_0,
    ..., Re w_size-1, Im w_size-1, Re mu, Im mu, u (the complex parts by view:
    re + 1j*im would turn inf into nan)."""
    c = np.ascontiguousarray(x[..., : 2 * size + 2]).view(np.complex128)
    return c[..., :size], x[..., 2 * size + 2 :], c[..., size]


def _all_within_entries(a, b, size):
    with np.errstate(invalid="ignore"):  # inf - inf
        (aw, au, amu), (bw, bu, bmu) = _tangents(a, size), _tangents(b, size)
        return _all_within(aw - bw, au - bu, amu - bmu, TANGENCY_TOL)


def _distance_within(a, b, size):
    """tangent_distance <= tol for one (sample, field) of entries a and b."""
    with np.errstate(invalid="ignore"):
        ta, tb = AmbientTangent(*_tangents(a, size)), AmbientTangent(*_tangents(b, size))
        return tangent_distance(ta, tb) <= TANGENCY_TOL


def test_all_within_matches_tangent_distance():
    # every (a, b) edge pair alone in every slot of every shape: _all_within decides
    # each (sample, field) by its own entries, so the rest of the batch stays zero
    pairs = [(x, y) for x in _A_EDGES for y in _B_EDGES]
    for size, sphere in itertools.product(_SIZES, repeat=2):
        width = 2 * size + sphere + 2
        cells = np.zeros((2, len(pairs) * width, width))  # a and b, one edge entry per row
        for row, ((x, y), slot) in enumerate(itertools.product(pairs, range(width))):
            cells[:, row, slot] = x, y
        want_cell = [_distance_within(a, b, size) for a, b in zip(*cells)]
        assert not all(want_cell) and any(want_cell)
        for count, delta in itertools.product(_SIZES, repeat=2):
            at = list(itertools.product(range(count), range(delta)))
            entries = np.zeros((2, len(at), len(cells[0]), count, delta, width))
            want = np.ones((len(at), len(cells[0]), count, delta), dtype=bool)
            for k, (s, j) in enumerate(at):
                entries[:, k, :, s, j] = cells
                want[k, :, s, j] = want_cell
            got = _all_within_entries(*entries, size)
            assert got.dtype == bool and np.array_equal(got, want), (count, delta, size, sphere)
    # a seeded fill of every shape: a and b uniform within tol, so that whole
    # (sample, field) rows pass as well as fail, then with a quarter of the entries
    # set to edge values
    rng = np.random.default_rng(2024)
    for count, delta, size, sphere in list(itertools.product(_SIZES, repeat=4)) * 4:
        shape = (count, delta, 2 * size + sphere + 2)
        a, b = rng.uniform(-TANGENCY_TOL, TANGENCY_TOL, (2, *shape))
        for edged in (False, True):
            if edged:
                a = np.where(rng.random(shape) < 0.25, rng.choice(_A_EDGES, shape), a)
                b = np.where(rng.random(shape) < 0.25, rng.choice(_B_EDGES, shape), b)
            got = _all_within_entries(a, b, size)
            assert got.shape == (count, delta) and got.dtype == bool
            for s, j in itertools.product(range(count), range(delta)):
                assert got[s, j] == _distance_within(a[s, j], b[s, j], size), (shape, s, j)
