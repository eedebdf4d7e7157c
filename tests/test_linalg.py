import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import halfstrip as hs
from halfstrip import SingularMatrixError, ReducibleChainError


def test_invert_known_2x2():
    mat = np.array([[2.0, 1.0], [1.0, 1.0]])
    expected = np.array([[1.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(hs.invert(mat), expected, atol=1e-14)


@pytest.mark.parametrize("mat, expected", [
    pytest.param([[1.0, 1.0], [1.0, 1.0]], None, id="rank-one"),
    # the guard is relative: a tiny but perfectly conditioned matrix inverts
    pytest.param(1e-13 * np.eye(3), 1e13 * np.eye(3), id="tiny-scale"),
    # its LU pivot of 1e-10 passes an absolute 1e-12 test, but the 1-norm
    # condition number is 4.0e13
    pytest.param(1e3 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), None,
                 id="ill-conditioned"),
    pytest.param([[np.nan]], None, id="nan"),
])
def test_invert_singular_raises(mat, expected):
    if expected is None:
        with pytest.raises(SingularMatrixError):
            hs.invert(mat)
    else:
        assert np.allclose(hs.invert(mat), expected, rtol=1e-14, atol=0)


def test_check_condition_matches_the_one_matrix_guard():
    """The stacked condition numbers equal norm(a, 1) * norm(inv, 1) of
    each matrix exactly, well and badly scaled, up to d = 200."""
    rng = np.random.default_rng(20)
    for d, k in [(1, 5), (2, 40), (3, 7), (11, 9), (33, 4), (200, 2)]:
        mats = rng.standard_normal((k, d, d)) * 10.0 ** rng.integers(-8, 8, size=(k, 1, 1))
        invs = np.linalg.inv(mats)
        cond = hs.linalg.check_condition(mats, invs)
        want = [np.linalg.norm(a, 1) * np.linalg.norm(inv, 1) for a, inv in zip(mats, invs)]
        assert cond.shape == (k,) and np.array_equal(cond, want)


def test_check_condition_refuses_the_first_bad_matrix_in_stack_order():
    bad = 1e3 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    worse = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    mats = np.stack([np.eye(2), bad, np.full((2, 2), np.nan), worse])
    invs = np.linalg.inv(mats)
    first = float(np.linalg.norm(bad, 1) * np.linalg.norm(invs[1], 1))
    message = f"1-norm condition number {first:.3e} above 1e+12"
    with pytest.raises(SingularMatrixError, match=f"^{re.escape(message)}$"):
        hs.linalg.check_condition(mats, invs)
    with pytest.raises(SingularMatrixError, match="^1-norm condition number nan above"):
        hs.linalg.check_condition(mats[2:], invs[2:])
    assert hs.linalg.check_condition(mats[:1], invs[:1]).tolist() == [1.0]
    assert hs.linalg.check_condition(mats[:0], invs[:0]).shape == (0,)


def test_invert_1x1():
    assert np.allclose(hs.invert(np.array([[4.0]])), [[0.25]])


def test_spectral_radius_frozen():
    # roots of x^2 - 0.6x + 0.05: 0.5 and 0.1
    mat = np.array([[0.2, 0.3], [0.1, 0.4]])
    assert abs(hs.spectral_radius(mat) - 0.5) < 1e-10


def test_spectral_radius_scalar():
    assert hs.spectral_radius(np.array([[0.37]])) == pytest.approx(0.37, abs=0)


def test_spectral_radius_zero_matrix():
    assert hs.spectral_radius(np.zeros((3, 3))) < 1e-12


def test_stationary_left_vector_frozen():
    mat = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi = hs.stationary_left_vector(mat)
    assert np.allclose(pi, [5.0 / 6.0, 1.0 / 6.0], atol=1e-12)


def test_stationary_left_vector_identity_rejected():
    # two closed classes, no unique stationary vector
    with pytest.raises((ReducibleChainError, SingularMatrixError)):
        hs.stationary_left_vector(np.eye(2))


square = st.integers(min_value=1, max_value=5)


@st.composite
def stochastic_matrix(draw):
    n = draw(square)
    entries = st.floats(min_value=0.05, max_value=1.0)
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    mat = np.array(rows)
    return mat / mat.sum(axis=1, keepdims=True)


@given(stochastic_matrix(), st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=80, deadline=None)
def test_spectral_radius_matches_eig(mat, scale):
    # independent reference: a row-stochastic matrix has Perron root 1, so
    # scale * P has Perron root scale
    assert abs(hs.spectral_radius(scale * mat) - scale) <= 1e-12 * scale


def test_spectral_radius_triangular_zero_column():
    # offspring matrices often have structurally zero columns
    mat = np.array([[0.0, 0.3], [0.0, 0.6]])
    assert abs(hs.spectral_radius(mat) - 0.6) < 1e-10


@pytest.mark.parametrize("mat, want", [
    pytest.param([[0.0, 1.0], [0.0, 0.0]], 0.0, id="nilpotent"),
    pytest.param([[0.5, 1.0], [0.0, 0.5]], 0.5, id="jordan-block"),
])
def test_spectral_radius_defective_exact(mat, want):
    # defective matrices, where a power iteration converges only like 1/k
    assert hs.spectral_radius(np.array(mat)) == want


@given(stochastic_matrix())
@settings(max_examples=60, deadline=None)
def test_stationary_vector_is_stationary(mat):
    pi = hs.stationary_left_vector(mat)
    assert np.all(pi >= -1e-12)
    assert abs(pi.sum() - 1.0) < 1e-9
    assert np.max(np.abs(pi @ mat - pi)) < 1e-8


@given(stochastic_matrix())
@settings(max_examples=60, deadline=None)
def test_invert_roundtrip_on_diagonally_dominant(mat):
    # I + P is always invertible for substochastic P
    work = np.eye(mat.shape[0]) + 0.5 * mat
    inv = hs.invert(work)
    assert np.max(np.abs(inv @ work - np.eye(mat.shape[0]))) < 1e-9


def test_spectral_radius_substochastic_below_one():
    mat = np.array([[0.3, 0.3], [0.2, 0.4]])
    assert hs.spectral_radius(mat) < 1.0
