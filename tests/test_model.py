"""Receiver-algebra identities, worked small examples, and validation errors."""

import warnings

import numpy as np
import pytest

from helpers import (
    combined_matrix,
    random_geometry,
    random_pattern,
    selection_matrix,
    steering_column,
)
from subnyq import model
from subnyq.errors import ConfigError
from subnyq.model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_A,
    build_B,
    build_G_selected,
    check_identifiable,
    doa_from_phase,
    phase_from_doa,
    selected_channel_columns,
)

GEOM = ArrayGeometry(M=5, d=0.5, c_prop=1.0)
PATTERN = MultiCosetPattern(L=7, offsets=(0, 1, 3), f_N=2.0)
SELECTED = selected_channel_columns(GEOM.M, PATTERN.P)
ALL_ROWS = np.arange(GEOM.M * PATTERN.P)


def test_coset_matrix_rows_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pattern = random_pattern(rng, max_coherence=1.0)
        B = build_B(pattern)
        np.testing.assert_allclose(B @ B.conj().T, np.eye(pattern.P),
                                   atol=1e-12)


def test_coset_matrix_entries():
    B = build_B(PATTERN)
    assert B.shape == (3, 7)
    for i, c in enumerate(PATTERN.offsets):
        for l in range(PATTERN.L):
            expected = np.exp(2j * np.pi * c * l / 7) / np.sqrt(7)
            assert abs(B[i, l] - expected) < 1e-14


def test_selection_matrix_small_example():
    # M=3 sensors, P=2 branches: keep channels (s1,b1), (s1,b2), (s2,b1), (s3,b1)
    expected = np.zeros((4, 6))
    expected[0, 0] = expected[1, 1] = expected[2, 2] = expected[3, 4] = 1.0
    np.testing.assert_array_equal(np.eye(6)[selected_channel_columns(3, 2)],
                                  expected)
    np.testing.assert_array_equal(selected_channel_columns(3, 2), [0, 1, 2, 4])
    # the full structure keeps every channel
    np.testing.assert_array_equal(selected_channel_columns(3, 2, True), np.arange(6))


def test_selection_matrix_orthonormal_rows():
    for M, P in [(2, 1), (3, 2), (8, 5), (6, 6)]:
        J = selection_matrix(M, P)
        assert J.shape == (M + P - 1, M * P)
        np.testing.assert_array_equal(J @ J.T, np.eye(M + P - 1))


def test_spatial_steering_values():
    a = build_A(0.3, 4)[:, 0]
    np.testing.assert_allclose(a, np.exp(-1j * 0.3 * np.arange(4)), atol=1e-15)
    assert a[0] == 1.0 + 0.0j
    np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-15)


def test_steering_matrix_columns():
    phis = [0.1, -1.2, 2.5]
    A = build_A(phis, 6)
    assert A.shape == (6, 3)
    for k, phi in enumerate(phis):
        np.testing.assert_allclose(A[:, k], np.exp(-1j * phi * np.arange(6)),
                                   atol=1e-15)


def test_joint_steering_matches_selected_kron_column():
    rng = np.random.default_rng(1)
    for _ in range(20):
        geom = random_geometry(rng)
        pattern = random_pattern(rng, max_coherence=1.0)
        phi = rng.uniform(-np.pi, np.pi)
        band = int(rng.integers(pattern.L))
        J = selection_matrix(geom.M, pattern.P)
        direct = J @ np.kron(build_A(phi, geom.M)[:, 0],
                             build_B(pattern)[:, band])
        np.testing.assert_allclose(steering_column(phi, band, geom, pattern),
                                   direct, atol=1e-13)


def test_joint_steering_norm():
    # P entries of modulus 1/sqrt(L) plus M-1 of the same modulus
    v = steering_column(0.7, 2, GEOM, PATTERN)
    expected = (GEOM.M + PATTERN.P - 1) / PATTERN.L
    assert abs(np.vdot(v, v).real - expected) < 1e-13


def test_full_steering_is_kron():
    phi, band = -0.9, 5
    g = steering_column(phi, band, GEOM, PATTERN, full_structure=True)
    direct = np.kron(build_A(phi, GEOM.M)[:, 0], build_B(PATTERN)[:, band])
    np.testing.assert_allclose(g, direct, atol=1e-14)


def test_combined_matrix_columns():
    phis = [0.4, -2.0]
    H = combined_matrix(phis, GEOM, PATTERN)
    assert H.shape == (GEOM.M + PATTERN.P - 1, 2 * PATTERN.L)
    for k, phi in enumerate(phis):
        for l in range(PATTERN.L):
            np.testing.assert_allclose(
                H[:, k * PATTERN.L + l],
                steering_column(phi, l, GEOM, PATTERN), atol=1e-13,
            )


def test_selected_builders_pick_columns():
    phis = [0.4, -2.0]
    bands = [1, 6]
    H_sel = build_G_selected(phis, bands, GEOM, PATTERN, SELECTED)
    G_sel = build_G_selected(phis, bands, GEOM, PATTERN, ALL_ROWS)
    for k in range(2):
        np.testing.assert_allclose(
            G_sel[:, k], np.kron(build_A(phis[k], GEOM.M)[:, 0],
                                 build_B(PATTERN)[:, bands[k]]), atol=1e-14)
    # selection matrix maps the full columns onto the simplified ones
    J = selection_matrix(GEOM.M, PATTERN.P)
    np.testing.assert_array_equal(J @ G_sel, H_sel)
    # any row list, in any order, picks those rows of the full columns
    rows = np.array([7, 0, 14, 3, 3])
    np.testing.assert_array_equal(
        build_G_selected(phis, bands, GEOM, PATTERN, rows), G_sel[rows])


def test_phase_doa_round_trip():
    rng = np.random.default_rng(2)
    geom = ArrayGeometry(M=4, d=0.5, c_prop=1.0)
    phis, fs, thetas = [], [], []
    for _ in range(50):
        theta = rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01)
        f = rng.uniform(0.05, 1.0)
        phi = phase_from_doa(theta, f, geom)
        scalar = doa_from_phase(phi, f, geom)
        assert isinstance(scalar, float)
        assert abs(scalar - theta) < 1e-12
        phis.append(phi)
        fs.append(f)
        thetas.append(scalar)
    # one array call gives the scalar calls' values bit for bit
    np.testing.assert_array_equal(
        doa_from_phase(np.array(phis), np.array(fs), geom), thetas)


def test_doa_from_phase_rejects_aliased_phase():
    # an aliased phase leaves the arcsine domain: NaN, alone or in an array
    geom = ArrayGeometry(M=4, d=0.5, c_prop=1.0)
    assert np.isnan(doa_from_phase(3.0, 0.1, geom))
    np.testing.assert_array_equal(
        doa_from_phase(np.array([3.0, 0.3]), np.array([0.1, 0.2]), geom),
        [np.nan, doa_from_phase(0.3, 0.2, geom)])


def test_doa_from_phase_at_zero_frequency_is_nan():
    # f = 0 has no DOA: NaN with no exception and no warning, for Python and
    # numpy scalars (a noiseless source at f_c = 0 gives the latter)
    geom = ArrayGeometry(M=4, d=0.5, c_prop=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi, f in ((0.0, 0.0), (np.float64(0.0), np.float64(0.0)), (0.5, 0.0)):
            assert np.isnan(doa_from_phase(phi, f, geom))


def test_combined_matrix_is_selected_kron():
    # the steering builder over every (phase, band) pair is A kron B, and its
    # selected rows are H = J (A kron B)
    phis = [0.2, 1.1]
    L = PATTERN.L
    G = build_G_selected(np.repeat(phis, L), np.tile(np.arange(L), 2),
                         GEOM, PATTERN, ALL_ROWS)
    np.testing.assert_allclose(
        G, np.kron(build_A(phis, GEOM.M), build_B(PATTERN)), atol=1e-13)
    np.testing.assert_allclose(
        G[selected_channel_columns(GEOM.M, PATTERN.P)],
        combined_matrix(phis, GEOM, PATTERN), atol=1e-13)


@pytest.mark.parametrize("kwargs", [
    dict(M=1, d=0.5),
    dict(M=4, d=0.0),
    dict(M=4, d=0.5, c_prop=-1.0),
    dict(M=8.5, d=0.5),
    dict(M=True, d=0.5),
])
def test_geometry_validation(kwargs):
    with pytest.raises(ConfigError):
        ArrayGeometry(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(L=0, offsets=(0,)),
    dict(L=5, offsets=()),
    dict(L=5, offsets=(0, 5)),
    dict(L=5, offsets=(2, 1)),
    dict(L=5, offsets=(1, 1)),
    dict(L=5, offsets=(0, 2), f_N=0.0),
    dict(L=5, offsets=(0, 1.7, 4)),
    dict(L=5.5, offsets=(0, 2)),
])
def test_pattern_validation(kwargs):
    with pytest.raises(ConfigError):
        MultiCosetPattern(**kwargs)


def test_integer_fields_are_stored_as_int():
    geom = ArrayGeometry(M=8.0, d=0.5)
    pattern = MultiCosetPattern(L=np.int64(13), offsets=(0.0, 1, np.int32(4)))
    assert type(geom.M) is int and geom.M == 8
    assert type(pattern.L) is int and pattern.L == 13
    assert pattern.offsets == (0, 1, 4)
    assert all(type(c) is int for c in pattern.offsets)


def test_band_bounds_checked():
    for rows in (SELECTED, ALL_ROWS):
        for band in (PATTERN.L, -1):
            with pytest.raises(ConfigError):
                build_G_selected([0.1], [band], GEOM, PATTERN, rows)
    with pytest.raises(ConfigError):
        build_G_selected([0.1, 0.2], [1], GEOM, PATTERN, ALL_ROWS)


def test_selected_builder_rejects_too_many_sources():
    # the source count is checked against the rows asked for
    K = SELECTED.size + 1
    phis = np.linspace(-1, 1, K)
    bands = [0] * K
    with pytest.raises(ConfigError):
        build_G_selected(phis, bands, GEOM, PATTERN, SELECTED)
    assert build_G_selected(phis, bands, GEOM, PATTERN, ALL_ROWS).shape == (
        ALL_ROWS.size, K)


def test_check_identifiable_reads_only_composite_l(monkeypatch):
    # columns 0, 2 and 4 of this coset matrix are dependent
    pattern = MultiCosetPattern(L=6, offsets=(0, 1, 3))
    check_identifiable(pattern, 1)
    with pytest.raises(ConfigError, match=r"columns \[0, 2, 4\] are dependent"):
        check_identifiable(pattern, 2)
    with pytest.raises(ConfigError, match="K <= P-1"):
        check_identifiable(pattern, 3)
    # prime L: every DFT minor is nonzero, so no table is read
    monkeypatch.setattr(model, "_subset_singular_values", None)
    check_identifiable(MultiCosetPattern(L=13, offsets=(0, 1, 4, 7, 9)), 4)
