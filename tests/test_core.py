"""Ground-truth generation, masks, projection, and selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmc.core import (
    Dims,
    SampleMask,
    generate_low_rank,
    project,
    sample_mask_uniform,
    scatter_vector,
    select_vector,
)


class TestDims:
    def test_valid(self):
        d = Dims(3, 5)
        assert (d.n1, d.n2) == (3, 5) and d.size == 15

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_nonpositive(self, shape):
        with pytest.raises(ValueError):
            Dims(*shape)


class TestGenerateLowRank:
    def test_one_by_one_scaling_forces_max(self):
        gt = generate_low_rank((1, 1), 1, 2.0, seed=0)
        assert abs(abs(gt[0, 0]) - 2.0) <= 1e-12

    def test_rank_and_max_norm_via_svd_oracle(self):
        gt = generate_low_rank((10, 10), 3, 1.0, seed=42)
        s = np.linalg.svd(gt, compute_uv=False)
        assert s[3] <= 1e-9 * s[0]
        assert abs(np.abs(gt).max() - 1.0) <= 1e-12

    def test_deterministic_bitwise(self):
        a = generate_low_rank((7, 5), 2, 1.5, seed=9)
        b = generate_low_rank((7, 5), 2, 1.5, seed=9)
        assert a.tobytes() == b.tobytes()

    def test_read_only(self):
        gt = generate_low_rank((3, 4), 1, 1.0, seed=0)
        with pytest.raises(ValueError):
            gt[0, 0] = 0.0

    def test_rank_exceeds_min_dim(self):
        with pytest.raises(ValueError):
            generate_low_rank((4, 6), 5, 1.0, seed=0)

    def test_nuclear_frobenius_max_norm_chain(self):
        # ||X||_* <= sqrt(r) ||X||_F <= sqrt(r n1 n2) max|X|
        for seed in range(5):
            gt = generate_low_rank((12, 9), 3, 2.0, seed=seed)
            nuc = np.linalg.norm(gt, "nuc")
            fro = np.linalg.norm(gt)
            r, (n1, n2) = 3, gt.shape
            assert nuc <= np.sqrt(r) * fro + 1e-9
            assert np.sqrt(r) * fro <= np.sqrt(r * n1 * n2) * np.abs(gt).max() + 1e-9


class TestSampleMask:
    def test_exhaustive_mask(self):
        mask = sample_mask_uniform((3, 3), 9, seed=1)
        assert mask.m_prime == 9
        assert mask.rows.tolist() == [0, 1, 2] * 3
        assert mask.cols.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_single_entry(self):
        mask = sample_mask_uniform((3, 3), 1, seed=5)
        assert mask.m_prime == 1
        assert 0 <= mask.rows[0] < 3 and 0 <= mask.cols[0] < 3

    @pytest.mark.parametrize("m_prime", [0, 10, -1])
    def test_out_of_range(self, m_prime):
        with pytest.raises(ValueError):
            sample_mask_uniform((3, 3), m_prime, seed=0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SampleMask((3, 3), [0, 0], [0, 0])

    def test_canonical_column_major_order(self):
        mask = SampleMask((3, 3), [2, 0, 1], [1, 0, 2])
        assert mask.rows.tolist() == [0, 2, 1]
        assert mask.cols.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("rows, cols", [([3], [0]), ([-1], [0]), ([0], [4]), ([0], [-1])])
    def test_rejects_entries_out_of_range(self, rows, cols):
        with pytest.raises(ValueError, match="out of range"):
            SampleMask((3, 4), rows, cols)

    def test_entries_match_a_stable_argsort(self):
        # the entries come back from the sorted flat index, as read-only
        # int64 arrays equal to the input reordered by a stable argsort of
        # that index, on square, tall and wide masks
        rng = np.random.default_rng(12)
        for n1, n2 in [(7, 7), (9, 4), (4, 9), (1, 6), (6, 1)]:
            for m_prime in (1, n1 * n2 // 2, n1 * n2):
                flat = rng.choice(n1 * n2, m_prime, replace=False)
                rows, cols = flat % n1, flat // n1
                order = np.argsort(rows + cols * n1, kind="stable")
                mask = SampleMask((n1, n2), rows, cols)
                assert mask.rows.dtype == mask.cols.dtype == np.int64
                assert np.array_equal(mask.rows, rows[order]) and np.array_equal(mask.cols, cols[order])
                assert not (mask.rows.flags.writeable or mask.cols.flags.writeable)

    def test_deterministic(self):
        a = sample_mask_uniform((20, 20), 100, seed=3)
        b = sample_mask_uniform((20, 20), 100, seed=3)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)

    def test_inclusion_frequency_uniform(self):
        # Monte Carlo oracle: each cell's inclusion frequency over resamples
        # stays within 4 standard errors of m_prime / (n1 n2)
        n, m_prime, resamples = 20, 100, 100_000
        counts = np.zeros((n, n))
        for seed in range(resamples):
            mask = sample_mask_uniform((n, n), m_prime, seed=seed)
            counts[mask.rows, mask.cols] += 1
        p = m_prime / (n * n)
        se = np.sqrt(p * (1 - p) / resamples)
        freq = counts / resamples
        assert np.all(np.abs(freq - p) <= 4 * se)


class TestProjectAndSelect:
    def test_full_mask_is_identity(self):
        X = np.arange(12, dtype=float).reshape(3, 4)
        mask = sample_mask_uniform((3, 4), 12, seed=0)
        assert np.array_equal(project(X, mask), X)

    def test_single_entry_projection(self):
        X = np.array([[5.0, 7.0], [2.0, 3.0]])
        mask = SampleMask((2, 2), [0], [0])
        assert np.array_equal(project(X, mask), np.array([[5.0, 0.0], [0.0, 0.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 5))
        mask = sample_mask_uniform((6, 5), 11, seed=2)
        once = project(X, mask)
        assert np.array_equal(project(once, mask), once)

    def test_dimension_mismatch(self):
        mask = sample_mask_uniform((3, 3), 4, seed=0)
        with pytest.raises(ValueError):
            project(np.zeros((4, 4)), mask)
        with pytest.raises(ValueError):
            select_vector(np.zeros((2, 3)), mask)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 1000),
    )
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((5, 4))
        Y = rng.standard_normal((5, 4))
        mask = sample_mask_uniform((5, 4), 7, seed=seed)
        lhs = project(a * X + b * Y, mask)
        rhs = a * project(X, mask) + b * project(Y, mask)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, abs(a) + abs(b))

    def test_full_mask_select_is_column_major_vec(self):
        X = np.array([[5.0, 7.0], [2.0, 3.0]])
        mask = sample_mask_uniform((2, 2), 4, seed=0)
        assert np.array_equal(select_vector(X, mask), np.array([5.0, 2.0, 7.0, 3.0]))

    def test_single_entry_select(self):
        X = np.array([[5.0, 7.0], [2.0, 3.0]])
        mask = SampleMask((2, 2), [1], [0])
        assert np.array_equal(select_vector(X, mask), np.array([2.0]))

    def test_select_norm_matches_projection_norm(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((9, 7))
        mask = sample_mask_uniform((9, 7), 23, seed=4)
        lhs = np.linalg.norm(select_vector(X, mask))
        rhs = np.linalg.norm(project(X, mask))
        assert abs(lhs - rhs) <= 1e-12

    def test_scatter_inverts_select_on_mask(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 6))
        mask = sample_mask_uniform((6, 6), 13, seed=8)
        assert np.array_equal(scatter_vector(select_vector(X, mask), mask), project(X, mask))

    def test_rejects_nonfinite(self):
        mask = sample_mask_uniform((2, 2), 2, seed=0)
        bad = np.array([[1.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValueError):
            project(bad, mask)
