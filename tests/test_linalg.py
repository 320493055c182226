"""Tests for the complex-matrix kernels."""

import warnings

import numpy as np
import pytest

from mrc_dof_lab.linalg import (
    orthonormal_columns,
    pseudo_inverse_and_rank,
    random_gaussian_matrix,
    random_gaussian_stack,
    random_gaussian_vector,
    subspace_distance,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def pinv(a):
    """The pseudoinverse alone, of one matrix or a stack."""
    return pseudo_inverse_and_rank(a)[0]


class TestRandomGaussian:
    def test_same_seed_same_matrix(self):
        a = random_gaussian_matrix(2, 3, rng(123))
        b = random_gaussian_matrix(2, 3, rng(123))
        assert np.array_equal(a, b)

    def test_square_draw_is_full_rank(self):
        a = random_gaussian_matrix(5, 5, rng(7))
        assert pseudo_inverse_and_rank(a)[1] == 5

    def test_unit_power_entries(self):
        # law of large numbers over 1e5 draws: E|a_ij|^2 = 1
        a = random_gaussian_matrix(1, 10**5, rng(42))
        assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.02

    def test_bit_reproducible(self):
        a = random_gaussian_matrix(4, 4, rng(2024)).tobytes()
        b = random_gaussian_matrix(4, 4, rng(2024)).tobytes()
        assert a == b

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            random_gaussian_matrix(0, 3, rng())

    def test_stack_equals_draws_one_after_another(self):
        # one standard_normal call per generator gives the bits of drawing
        # each array's real and imaginary part in turn, and row s of a
        # stack comes from generator s alone
        got = random_gaussian_stack(3, (2, 4), [rng(5), rng(6)])
        assert got.shape == (2, 3, 2, 4)
        for s, seed in enumerate((5, 6)):
            g = rng(seed)
            for i in range(3):
                re = g.standard_normal((2, 4))
                im = g.standard_normal((2, 4))
                assert np.array_equal(got[s, i], (re + 1j * im) / np.sqrt(2.0))
        vectors = random_gaussian_stack(2, (3,), rng(7))
        g = rng(7)
        assert np.array_equal(vectors, [random_gaussian_vector(3, g) for _ in range(2)])


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_right_inverse_for_wide_matrix(self):
        a = random_gaussian_matrix(3, 5, rng(1))
        assert np.allclose(a @ pinv(a), np.eye(3), atol=1e-10)

    def test_closed_form_1x2(self):
        # A^H (A A^H)^{-1} for A = [[2, 0]] gives [[0.5], [0]]
        a = np.array([[2.0, 0.0]], dtype=complex)
        oracle = a.conj().T @ np.linalg.inv(a @ a.conj().T)
        assert np.allclose(oracle, [[0.5], [0.0]], atol=1e-15)
        assert np.allclose(pinv(a), [[0.5], [0.0]], atol=1e-12)

    def test_penrose_identities_random_shapes(self):
        # A A+ A = A and A+ A A+ = A+ across aspect ratios up to 32
        shapes = [(1, 1), (2, 5), (5, 2), (8, 8), (32, 7), (7, 32), (32, 32)]
        for i, (r, c) in enumerate(shapes):
            a = random_gaussian_matrix(r, c, rng(100 + i))
            p = pinv(a)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(p @ a @ p - p) <= 1e-10 * np.linalg.norm(p)

    def test_rank_deficient_input(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        p = pinv(a)
        assert np.allclose(a @ p @ a, a, atol=1e-10)


class TestPseudoInverseAndRank:
    def test_stack_matches_one_at_a_time(self):
        g = rng(31)
        for r, c in [(3, 3), (5, 2), (2, 5)]:
            stack = np.stack([random_gaussian_matrix(r, c, g) for _ in range(4)])
            pinv, rank, cond = pseudo_inverse_and_rank(stack)
            assert pinv.shape == (4, c, r) and rank.shape == cond.shape == (4,)
            for a, p, k, kappa in zip(stack, pinv, rank, cond):
                assert np.allclose(p, pseudo_inverse_and_rank(a)[0], atol=1e-12)
                assert k == pseudo_inverse_and_rank(a)[1] == min(r, c)
                assert abs(kappa - np.linalg.cond(a)) <= 1e-10 * kappa

    def test_rank_decided_per_matrix(self):
        # a rank-one member does not change its full-rank neighbours
        full = random_gaussian_matrix(3, 3, rng(32))
        col = random_gaussian_matrix(3, 1, rng(33))
        low = col @ col.conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pinv, rank, cond = pseudo_inverse_and_rank(np.stack([full, low, np.zeros((3, 3))]))
        assert rank.tolist() == [3, 1, 0]
        # rank-deficient and zero matrices are infinitely ill conditioned
        assert cond[0] == pytest.approx(np.linalg.cond(full), rel=1e-10)
        assert cond[1] == cond[2] == np.inf
        assert np.allclose(pinv[0] @ full, np.eye(3), atol=1e-10)
        assert np.allclose(low @ pinv[1] @ low, low, atol=1e-10)
        assert np.array_equal(pinv[2], np.zeros((3, 3)))

    def test_single_matrix(self):
        a = random_gaussian_matrix(4, 4, rng(34))
        pinv, rank, cond = pseudo_inverse_and_rank(a)
        assert int(rank) == 4 and rank.shape == cond.shape == ()
        assert cond == pytest.approx(np.linalg.cond(a), rel=1e-10)
        assert np.allclose(pinv, np.linalg.inv(a), atol=1e-10)
        assert not pinv.flags.writeable


class TestSubspaceDistance:
    def test_span_invariance(self):
        a = random_gaussian_matrix(6, 3, rng(11))
        c = random_gaussian_matrix(3, 3, rng(12))  # invertible almost surely
        assert subspace_distance(a, a @ c) <= 1e-12

    def test_orthogonal_spans(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        e2 = np.array([[0.0], [1.0]], dtype=complex)
        assert subspace_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(np.eye(3), np.eye(4))

    def test_symmetry_and_triangle(self):
        g = rng(31)
        for _ in range(50):
            a = random_gaussian_matrix(6, 2, g)
            b = random_gaussian_matrix(6, 2, g)
            c = random_gaussian_matrix(6, 2, g)
            dab = subspace_distance(a, b)
            dba = subspace_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= subspace_distance(a, c) + subspace_distance(c, b) + 1e-9
            assert 0.0 <= dab <= 1.0 + 1e-12


class TestOrthonormalColumns:
    def test_orthonormal_and_same_span(self):
        a = random_gaussian_matrix(5, 3, rng(21))
        q = orthonormal_columns(a)
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        assert subspace_distance(a, q) <= 1e-12

    def test_stack_matches_one_at_a_time(self):
        g = rng(22)
        stack = np.stack([random_gaussian_matrix(6, 2, g) for _ in range(4)])
        q = orthonormal_columns(stack)
        assert q.shape == (4, 6, 2)
        for qi, a in zip(q, stack):
            assert np.allclose(qi, orthonormal_columns(a), rtol=0, atol=1e-14)
