import math

import numpy as np
import pytest

from spanalign.distortion import (
    allocate_mu,
    check_lam,
    log_delta_a,
    log_delta_b,
    log_softmax,
)
from spanalign.model import deficient_log_s_table, proper_log_s_rows

from oracles import analytic_delta_argmax, largest_remainder_alloc


EXAMPLE = dict(i=1, l=5, m=100, mu_i=20)


def test_fig_argmax_start():
    vec = np.exp(log_delta_a(**EXAMPLE, lam=0.5))
    assert int(np.argmax(vec[1:])) + 1 == 16


def test_fig_argmax_end():
    vec = np.exp(log_delta_b(**EXAMPLE, lam=0.5))
    assert int(np.argmax(vec[1:])) + 1 == 36


def test_last_word_end_peaks_at_last_frame():
    vec = np.exp(log_delta_b(i=5, l=5, m=100, mu_i=20, lam=0.5))
    assert int(np.argmax(vec[1:])) + 1 == 100


def test_vector_sums_to_one():
    # Index j is frame j; no span starts or ends at frame 0, so slot 0 holds no mass.
    for lam in (0.0, 0.5, 40.0):
        for fn in (log_delta_a, log_delta_b):
            vec = fn(i=2, l=4, m=37, mu_i=9, lam=lam)
            assert vec.shape == (38,)
            assert vec[0] == -math.inf
            assert np.exp(vec[1:]).sum() == pytest.approx(1.0, abs=1e-9)


def test_random_sweep_matches_analytic_argmax():
    rng = np.random.default_rng(17)
    for _ in range(300):
        l = int(rng.integers(1, 9))
        i = int(rng.integers(1, l + 1))
        m = int(rng.integers(l, 120))
        mu_i = int(rng.integers(1, m)) if m > 1 else 1
        if not (0 < mu_i < m):
            continue
        lam = float(rng.uniform(0.05, 3.0))
        for fn, shifted in ((log_delta_a, False), (log_delta_b, True)):
            vec = fn(i, l, m, mu_i, lam)
            got = int(np.argmax(vec[1:])) + 1
            assert got == analytic_delta_argmax(i, l, m, mu_i, shifted)


def test_argument_validation():
    with pytest.raises(ValueError):
        log_delta_a(i=0, l=3, m=10, mu_i=2, lam=0.5)
    with pytest.raises(ValueError):
        log_delta_a(i=4, l=3, m=10, mu_i=2, lam=0.5)
    with pytest.raises(ValueError):
        log_delta_a(i=1, l=3, m=10, mu_i=10, lam=0.5)


def test_single_word_budget_is_scored_as_m_minus_one():
    # allocate_mu grants a single word all m frames, where the h slope is undefined.
    for m in (2, 3, 10, 37):
        for fn in (log_delta_a, log_delta_b):
            assert np.array_equal(fn(1, 1, m, m, 0.5), fn(1, 1, m, m - 1, 0.5))
    # A smaller single-word budget is kept, and only a single word is clamped.
    for fn in (log_delta_a, log_delta_b):
        assert not np.array_equal(fn(1, 1, 10, 3, 0.5), fn(1, 1, 10, 9, 0.5))
    with pytest.raises(ValueError, match="0 < mu_i < m"):
        log_delta_b(i=2, l=2, m=10, mu_i=10, lam=0.5)


def test_check_lam_rejects_negative_or_non_finite():
    for lam in (0.0, 0.5, 40.0):
        check_lam(lam)
    for lam in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
            check_lam(lam)


def test_allocate_mu_documented_split():
    assert allocate_mu((2, 4), 60) == (20, 40)


def test_allocate_mu_remainders():
    assert allocate_mu((1, 1, 1), 10) == (4, 3, 3)


def test_allocate_mu_single_word():
    assert allocate_mu((3,), 7) == (7,)


def test_allocate_mu_zero_repair():
    # One tiny word among giants still gets a frame.
    mu = allocate_mu((1, 100, 100), 10)
    assert min(mu) >= 1
    assert sum(mu) == 10


def test_allocate_mu_matches_reference():
    rng = np.random.default_rng(23)
    for _ in range(200):
        l = int(rng.integers(1, 8))
        chars = tuple(int(c) for c in rng.integers(1, 12, size=l))
        m = int(rng.integers(l, 200))
        got = allocate_mu(chars, m)
        assert isinstance(got, tuple)
        assert got == largest_remainder_alloc(chars, m)
        assert sum(got) == m
        assert min(got) >= 1


def test_allocate_mu_rejects_infeasible():
    with pytest.raises(ValueError):
        allocate_mu((1, 1, 1), 2)


def test_log_softmax_keeps_the_bits_of_each_normalizer():
    # Reference spellings of the three normalizers, each as its own
    # expression: the golden digests pin these bits.
    def old_log_delta_body(logits):
        peak = logits.max()
        return logits - (peak + math.log(np.exp(logits - peak).sum()))

    def old_deficient(costs):
        neg = -(costs * costs)
        peak = neg.max()
        return neg - (peak + math.log(np.exp(neg - peak).sum()))

    def old_proper(rows):
        rows = -(rows * rows)
        peak = rows.max(axis=0)
        return rows - (peak + np.log(np.exp(rows - peak).sum(axis=0)))

    rng = np.random.default_rng(5)
    # One log per row in the 1-d form, so many rows: math.log and np.log
    # disagree on about one scalar in a thousand.
    for _ in range(5000):
        x = rng.normal(scale=float(rng.uniform(0.1, 20.0)), size=int(rng.integers(1, 40)))
        assert np.array_equal(log_softmax(x), old_log_delta_body(x))
        costs = np.abs(x)
        assert np.array_equal(deficient_log_s_table(costs), old_deficient(costs))
    for _ in range(200):
        n = int(rng.integers(1, 300))
        rows = np.abs(rng.normal(size=(int(rng.integers(1, 12)), n)))
        assert np.array_equal(log_softmax(-(rows * rows), axis=0), old_proper(rows))
        got = proper_log_s_rows({f: row for f, row in enumerate(rows)})
        assert np.array_equal(np.stack(list(got.values())), old_proper(rows))

        l = int(rng.integers(1, 9))
        m = int(rng.integers(l + 1, 200))
        i = int(rng.integers(1, l + 1))
        mu_i = int(rng.integers(1, m))
        lam = float(rng.uniform(0.0, 50.0))
        j = np.arange(1, m + 1)
        h = -np.abs(i * (m - mu_i) - l * j).astype(np.float64) / float(l * (m - mu_i))
        want = old_log_delta_body(lam * h)
        assert np.array_equal(log_delta_a(i, l, m, mu_i, lam)[1:], want)
