"""SVD wrapper tests: expected values come from hand arithmetic or from
numpy's symmetric eigensolver, so the wrapper is never its own oracle."""

import numpy as np
import pytest

from fedlens import linalg
from fedlens.errors import NumericError


def reconstruct(u, s, v):
    """u @ diag(s) @ v.T of thin SVD factors."""
    return (u * s) @ v.T


class TestSvd:
    def test_diagonal(self):
        _, s, _ = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        u, s, v = linalg.svd(np.zeros((3, 2)))
        assert np.array_equal(s, [0.0, 0.0])
        # orthonormal factors even at rank zero
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_eigen_oracle(self):
        # singular values vs sqrt of eigenvalues of a^T a from numpy's
        # symmetric eigensolver, an algorithmically unrelated route
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 4))
        want = np.sqrt(np.sort(np.linalg.eigvalsh(a.T @ a))[::-1])
        _, s, _ = linalg.svd(a)
        assert np.abs(s - want).max() < 1e-8

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (16, 16), (64, 40), (64, 64)])
    def test_reconstruction_and_orthonormality(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        a = rng.normal(size=shape)
        u, s, v = linalg.svd(a)
        k = min(shape)
        assert s.shape == (k,)
        assert np.all(np.diff(s) <= 1e-15)
        rel = np.linalg.norm(a - reconstruct(u, s, v)) / np.linalg.norm(a)
        assert rel < 1e-8
        assert np.abs(u.T @ u - np.eye(k)).max() < 1e-8
        assert np.abs(v.T @ v - np.eye(k)).max() < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 6))
        s0 = linalg.svd(a)[1]
        rp = rng.permutation(8)
        cp = rng.permutation(6)
        s1 = linalg.svd(a[rp][:, cp])[1]
        assert np.abs(s0 - s1).max() < 1e-8

    def test_rank_deficient(self):
        rng = np.random.default_rng(31)
        u = rng.normal(size=(5, 2))
        v = rng.normal(size=(2, 5))
        fu, s, fv = linalg.svd(u @ v)  # rank 2 by construction
        assert np.count_nonzero(s) == 2
        assert np.abs(fu.T @ fu - np.eye(5)).max() < 1e-8
        rel = np.linalg.norm(u @ v - reconstruct(fu, s, fv)) / np.linalg.norm(u @ v)
        assert rel < 1e-8

    def test_values_below_the_relative_cutoff_are_exactly_zero(self):
        # s = (1, 1e-20): the second value is far below 2 * eps * 1
        _, s, _ = linalg.svd(np.diag([1.0, 1e-20]))
        assert s[1] == 0.0
        assert np.count_nonzero(s) == 1
        # the cutoff is relative: a uniformly tiny matrix keeps full rank
        assert np.count_nonzero(linalg.svd(np.diag([1e-20, 5e-21]))[1]) == 2
        # on a 2 x 50 matrix, s = (1, 10 eps) lies between min(shape) * eps and
        # max(shape) * eps, so only the larger dimension's cutoff zeroes it
        eps = np.finfo(np.float64).eps
        wide = np.zeros((2, 50))
        wide[0, 0], wide[1, 1] = 1.0, 10 * eps
        assert 2 * eps < np.linalg.svd(wide, compute_uv=False)[1] < 50 * eps
        assert np.array_equal(linalg.svd(wide)[1], [1.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            linalg.svd([[1.0, np.inf]])
