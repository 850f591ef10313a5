"""Tests for the N:M structured-sparsity extension pattern."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import ElementWisePattern, NMSparsityPattern, VectorWisePattern


def validate_nm_mask(mask: np.ndarray, n: int, m: int) -> bool:
    """True iff every full K-group of ``m`` rows holds exactly ``n`` survivors."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected 2-D mask, got ndim={mask.ndim}")
    n_full = mask.shape[0] // m
    if n_full == 0:
        return True
    body = mask[: n_full * m].reshape(n_full, m, mask.shape[1])
    return bool(np.all(body.sum(axis=1) == n))


class TestNMPattern:
    def test_fixed_sparsity(self):
        assert NMSparsityPattern(2, 4).fixed_sparsity == pytest.approx(0.5)
        assert NMSparsityPattern(1, 4).fixed_sparsity == pytest.approx(0.75)

    def test_exact_quota_per_group(self):
        rng = np.random.default_rng(0)
        scores = np.abs(rng.standard_normal((32, 8)))
        nm = NMSparsityPattern(2, 4)
        res = nm.prune([scores])
        assert validate_nm_mask(res.masks[0], nm.n, nm.m)
        assert res.achieved_sparsity == pytest.approx(0.5)

    def test_keeps_largest_in_group(self):
        scores = np.array([[4.0], [1.0], [3.0], [2.0]])
        res = NMSparsityPattern(2, 4).prune([scores])
        np.testing.assert_array_equal(
            res.masks[0][:, 0], [True, False, True, False]
        )

    def test_sparsity_argument_validated(self):
        nm = NMSparsityPattern(2, 4)
        with pytest.raises(ValueError):
            nm.prune([np.ones((8, 2))], 0.75)  # 2:4 can only do 0.5
        res = nm.prune([np.ones((8, 2))], 0.5)  # exact level accepted
        assert res.achieved_sparsity == pytest.approx(0.5)

    def test_ragged_tail_quota(self):
        rng = np.random.default_rng(1)
        scores = np.abs(rng.standard_normal((10, 4)))  # 2 full groups + 2 tail
        res = NMSparsityPattern(2, 4).prune([scores])
        tail = res.masks[0][8:]
        assert np.all(tail.sum(axis=0) == 1)  # round(2/4 * 2) = 1 per column

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            NMSparsityPattern(0, 4)
        with pytest.raises(ValueError):
            NMSparsityPattern(5, 4)
        with pytest.raises(ValueError):
            NMSparsityPattern(2, 0)

    def test_validate_mask_rejects_wrong_quota(self):
        nm = NMSparsityPattern(2, 4)
        mask = np.ones((8, 2), dtype=bool)  # 4 per group, not 2
        assert not validate_nm_mask(mask, nm.n, nm.m)

    def test_validate_mask_shape_check(self):
        with pytest.raises(ValueError):
            validate_nm_mask(np.ones(8, dtype=bool), 2, 4)

    def test_nm_is_vw_special_case(self):
        """2:4 keeps exactly what VW(vector=4) keeps at 50% sparsity."""
        rng = np.random.default_rng(2)
        scores = np.abs(rng.standard_normal((16, 4)))
        nm_mask = NMSparsityPattern(2, 4).prune([scores]).masks[0]
        vw_mask = VectorWisePattern(vector_size=4).prune([scores], 0.5).masks[0]
        np.testing.assert_array_equal(nm_mask, vw_mask)

    def test_irregularity_ordering_vs_ew(self):
        """EW captures at least as much score mass as N:M at equal
        sparsity (the paper's irregularity argument extended)."""
        rng = np.random.default_rng(3)
        scores = np.abs(rng.standard_normal((64, 16))) * np.exp(
            rng.standard_normal(16)
        )[None, :]
        nm_mask = NMSparsityPattern(2, 4).prune([scores]).masks[0]
        ew_mask = ElementWisePattern().prune([scores], 0.5).masks[0]
        assert scores[ew_mask].sum() >= scores[nm_mask].sum()


@given(
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_nm_quota_property(n, seed):
    m = 4
    n = min(n, m)
    rng = np.random.default_rng(seed)
    scores = np.abs(rng.standard_normal((24, 6)))
    nm = NMSparsityPattern(n, m)
    mask = nm.prune([scores]).masks[0]
    assert validate_nm_mask(mask, n, m)
    # kept entries dominate dropped entries inside each group
    body = scores[:24].reshape(6, 4, 6)
    bmask = mask[:24].reshape(6, 4, 6)
    for g in range(6):
        for c in range(6):
            kept = body[g, :, c][bmask[g, :, c]]
            dropped = body[g, :, c][~bmask[g, :, c]]
            if kept.size and dropped.size:
                assert kept.min() >= dropped.max() - 1e-12
