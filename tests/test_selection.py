import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufs_lab import numerics as nm
from ufs_lab import selection as sel
from ufs_lab.errors import ContractError, NumericError
from ufs_lab.numerics import SeededRng


# --- select_indices ----------------------------------------------------------- #


def test_top_two_of_three():
    idx = sel.select_indices(np.array([0.9, -0.2, 0.5]), 2, "top", SeededRng(0))
    assert set(idx) == {0, 2}


def test_k_equals_n_returns_everything():
    scores = np.array([3.0, -1.0, 0.5, 0.5])
    for mode in ("top", "bottom", "random"):
        idx = sel.select_indices(scores, 4, mode, SeededRng(0))
        assert np.array_equal(idx, [0, 1, 2, 3])


def test_bottom_two_of_three():
    idx = sel.select_indices(np.array([0.9, -0.2, 0.5]), 2, "bottom", SeededRng(0))
    assert set(idx) == {1, 2}


def test_ties_break_to_lowest_index():
    idx = sel.select_indices(np.array([1.0, 1.0, 1.0, 0.0]), 2, "top", SeededRng(0))
    assert np.array_equal(idx, [0, 1])


def test_k_out_of_range():
    with pytest.raises(ContractError):
        sel.select_indices(np.array([1.0, 2.0]), 3, "top", SeededRng(0))
    with pytest.raises(ContractError):
        sel.select_indices(np.array([1.0, 2.0]), 0, "top", SeededRng(0))


def test_random_selection_is_seeded_and_unique():
    a = sel.select_indices(np.zeros(10), 4, "random", SeededRng(3))
    b = sel.select_indices(np.zeros(10), 4, "random", SeededRng(3))
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 4


@pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
def test_top_bottom_match_sort_oracle(n):
    rng = SeededRng(100 + n)
    scores = rng.normal((n,))
    for k in {1, n // 2 or 1, n}:
        top = sel.select_indices(scores, k, "top", rng)
        bottom = sel.select_indices(scores, k, "bottom", rng)
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        assert set(top) == set(order[:k])
        order_b = sorted(range(n), key=lambda i: (scores[i], i))
        assert set(bottom) == set(order_b[:k])


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=64),
       st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_top_of_scores_is_bottom_of_negated(scores, k_raw):
    scores = np.array(scores)
    k = min(k_raw, len(scores))
    top = sel.select_indices(scores, k, "top", SeededRng(0))
    bottom = sel.select_indices(-scores, k, "bottom", SeededRng(0))
    assert np.array_equal(top, bottom)


# --- anneal_k --------------------------------------------------------------------- #


def make_cfg(**kw):
    defaults = dict(mode="top", k_start=64, k_end=32, anneal_fraction=0.5)
    defaults.update(kw)
    return sel.SelectionConfig(**defaults)


def test_selection_config_rejects_none_mode():
    # selection is switched off with `"selection": null`, not with a mode
    with pytest.raises(ContractError, match="'none'"):
        sel.SelectionConfig("none")


def test_anneal_k_start():
    assert sel.anneal_k(make_cfg(), 0, 1000) == 64


def test_anneal_k_end():
    cfg = make_cfg()
    assert sel.anneal_k(cfg, 500, 1000) == 32
    assert sel.anneal_k(cfg, 1000, 1000) == 32


def test_anneal_k_midpoint():
    assert sel.anneal_k(make_cfg(), 250, 1000) == 48


def test_anneal_k_monotone_and_bounded():
    cfg = make_cfg()
    values = [sel.anneal_k(cfg, t, 200) for t in range(201)]
    assert all(32 <= v <= 64 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_anneal_k_out_of_range():
    with pytest.raises(ContractError):
        sel.anneal_k(make_cfg(), -1, 100)


# --- instance selection ---------------------------------------------------------------- #


def test_retention_one_keeps_everything():
    rng = SeededRng(1)
    data = rng.normal((10, 3))
    kept = sel.instance_select(data, sel.InstanceSelectionConfig(retention_ratio=1.0))
    assert np.array_equal(kept, np.arange(10))


def test_retention_half_keeps_exactly_five_of_ten():
    rng = SeededRng(2)
    data = rng.normal((10, 3))
    kept = sel.instance_select(data, sel.InstanceSelectionConfig(retention_ratio=0.5))
    assert len(kept) == 5


@pytest.mark.parametrize("n,ratio,expected", [(30, 0.1, 3), (10, 0.35, 4), (7, 0.5, 4)])
def test_retention_counts_are_exact_ceilings(n, ratio, expected):
    rng = SeededRng(3)
    data = rng.normal((n, 2))
    kept = sel.instance_select(data, sel.InstanceSelectionConfig(retention_ratio=ratio))
    assert len(kept) == expected


@pytest.mark.parametrize("mode", ["full_shrinkage", "diagonal"])
def test_far_outlier_is_pruned(mode):
    rng = SeededRng(4)
    data = rng.normal((40, 2), 0.0, 0.1)
    data[13] = [1e6, 1e6]
    cfg = sel.InstanceSelectionConfig(retention_ratio=0.9, covariance_mode=mode)
    kept = sel.instance_select(data, cfg)
    assert 13 not in kept


def test_outlier_ranked_last_by_log_density():
    rng = SeededRng(5)
    data = rng.normal((20, 2), 0.0, 0.1)
    data[7] = [1e6, 1e6]
    scores = sel.gaussian_log_scores(data, "full_shrinkage")
    assert scores.argmin() == 7


def test_instance_select_permutation_equivariance():
    rng = SeededRng(6)
    data = rng.normal((16, 3))
    cfg = sel.InstanceSelectionConfig(retention_ratio=0.5)
    kept = sel.instance_select(data, cfg)
    perm = np.argsort(rng.uniform((16,)))
    kept_perm = sel.instance_select(data[perm], cfg)
    # position j in the permuted data is perm[j] in the original
    assert set(perm[kept_perm]) == set(kept)


def test_instance_select_on_images_is_deterministic():
    rng = SeededRng(7)
    images = rng.normal((12, 1, 9, 9))
    cfg = sel.InstanceSelectionConfig(retention_ratio=0.5, embedder_seed=3)
    a = sel.instance_select(images, cfg)
    b = sel.instance_select(images, cfg)
    assert np.array_equal(a, b)
    assert len(a) == 6


def test_instance_select_needs_enough_samples():
    with pytest.raises(ContractError):
        sel.instance_select(np.zeros((3, 2)), sel.InstanceSelectionConfig())
    with pytest.raises(ContractError):
        sel.instance_select(np.random.default_rng(0).normal(size=(10, 2)),
                            sel.InstanceSelectionConfig(retention_ratio=0.1))


def test_singular_covariance_is_a_numeric_error():
    data = np.zeros((8, 3))  # zero variance everywhere, shrinkage stays zero
    with pytest.raises(NumericError):
        sel.instance_select(data, sel.InstanceSelectionConfig(retention_ratio=0.5))


# --- index file export -------------------------------------------------------------------- #


def test_index_file_round_trip(tmp_path):
    path = tmp_path / "kept.txt"
    sel.write_index_file(np.array([3, 1, 4, 15]), path)
    assert path.read_text() == "3\n1\n4\n15\n"


def test_failed_index_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "kept.txt"
    sel.write_index_file(np.array([3, 1]), path)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(nm.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        sel.write_index_file(np.array([4, 15, 9]), path)
    assert path.read_text() == "3\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
