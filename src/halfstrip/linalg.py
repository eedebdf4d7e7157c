"""Dense numeric kernels shared across the package.

Matrices are float64 numpy arrays, small (d x d with d rarely above a few
dozen). Probability row vectors act on the left (``vec @ mat``);
expected-step columns act on the right. Inverses, solves and eigenvalues
run on LAPACK. Every inverse in the package is one call of
``lapack_inverse``, the gufunc behind ``np.linalg.inv`` without its Python
wrapper, inside ``lapack_errstate``: a recursion enters that error state
once and forms any number of inverses in it. The singularity guard is
``check_condition``: it takes a stack of matrices and their inverses and
refuses the first whose 1-norm condition number exceeds ``COND_LIMIT``, so
it scales with each matrix. ``invert`` is one inverse plus that check on a
stack of one; a recursion that forms many inverses in one pass may check
them all at once before it uses any.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

COND_LIMIT = 1e12
# LAPACK's inverse as numpy.linalg.inv calls it (numpy 1.24 to 2.x)
_INV = _umath_linalg.inv


class SingularMatrixError(ValueError):
    """The matrix is singular or too ill-conditioned to invert. ``index`` is
    its place in the stack or pass that refused it, when one did."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NotStochasticError(ValueError):
    """Rows are not probability distributions within tolerance."""


class ReducibleChainError(ValueError):
    """No unique stationary vector: more than one communicating class."""


class NoConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best estimate found."""

    def __init__(self, message, estimate=None, iterations=0, residual=float("nan")):
        super().__init__(message)
        self.estimate = estimate
        self.iterations = iterations
        self.residual = residual


def _raise_singular(err, flag):
    raise SingularMatrixError("LAPACK: Singular matrix")


def lapack_errstate():
    """numpy's error state for ``lapack_inverse``, as ``np.linalg.inv``
    sets it: a matrix LAPACK finds singular raises SingularMatrixError, and
    overflow, underflow and division stay silent. Inside it any invalid
    floating-point operation raises that error, so enter it only around the
    inverses and the arithmetic that forms their matrices."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def lapack_inverse(mat, out=None):
    """LAPACK's inverse of a square float64 matrix, from its LU
    factorization, unchecked, written into ``out`` when given: bit for bit
    ``np.linalg.inv``. Call it inside ``lapack_errstate``, where a matrix
    LAPACK finds singular raises SingularMatrixError; ``check_condition``
    is its guard."""
    return _INV(mat, out=out, signature="d->d")


def check_condition(mats, invs):
    """1-norm condition numbers ||A||_1 ||A^-1||_1 of a (k, n, n) stack of
    matrices and their inverses, as a length-k array.

    Raises SingularMatrixError for the first in stack order that is
    non-finite or above ``COND_LIMIT``, its ``index`` that place. Each
    1-norm is the largest column sum of absolute values, summed as
    ``np.linalg.norm(a, 1)`` sums it, so every number equals the one-matrix
    guard's bit for bit. The reductions are called as ufuncs: this guard
    runs once per inverse.
    """
    add, largest = np.add.reduce, np.maximum.reduce
    cond = (largest(add(np.abs(mats), axis=-2), axis=-1)
            * largest(add(np.abs(invs), axis=-2), axis=-1))
    if not largest(cond, initial=0.0) <= COND_LIMIT:  # NaN compares False
        refused = np.flatnonzero(~(cond <= COND_LIMIT))
        raise SingularMatrixError(
            f"1-norm condition number {cond[refused[0]]:.3e} above {COND_LIMIT:g}",
            int(refused[0]))
    return cond


def invert(mat):
    """Inverse of a square matrix, from LAPACK's LU factorization.

    Raises SingularMatrixError when LAPACK finds the matrix singular, or
    when the 1-norm condition number ||A||_1 ||A^-1||_1, formed from the
    inverse just computed, is non-finite or above ``COND_LIMIT``
    (``check_condition`` on a stack of one). The guard is relative, so it
    does not depend on the matrix's scale.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with lapack_errstate():
        inv = lapack_inverse(a)
    check_condition(a[None], inv[None])
    return inv


def spectral_radius(mat):
    """Perron root of an entrywise nonnegative square matrix: the largest
    eigenvalue modulus, from LAPACK's eigenvalues."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("entries must be nonnegative and finite")
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def stationary_left_vector(mat, row_tol=1e-9):
    """Unique stationary probability row vector pi with pi @ mat = pi.

    Solves (mat^T - I) x = 0 with the last equation replaced by the
    normalization sum(x) = 1, then validates the residual. A singular
    system, a negative solution, or a residual above 1e-10 all signal that
    the chain has no unique stationary vector.
    """
    s = np.asarray(mat, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)) or np.any(s < -row_tol):
        raise NotStochasticError("entries must be nonnegative and finite")
    row_err = float(np.max(np.abs(s.sum(axis=1) - 1.0)))
    if row_err > row_tol:
        raise NotStochasticError(f"row sums deviate from 1 by {row_err:.3e}")
    n = s.shape[0]
    m = s.T - np.eye(n)
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError("stationary system is singular") from exc
    if not np.all(np.isfinite(pi)) or float(pi.min()) < -1e-9:
        raise ReducibleChainError("stationary solve produced an invalid vector")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ s - pi).sum())
    if residual > 1e-10 * max(1.0, float(np.abs(pi).sum())):
        raise ReducibleChainError(f"stationary residual {residual:.3e} too large")
    return pi
