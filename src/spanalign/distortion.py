"""Reparameterized span distortion: where word i's frames should sit.

Word i of a length-l sentence is granted mu_i frames of the m-frame
utterance in proportion to its character count.  Its span start a and
end b then follow two softmax families peaked near the diagonal:

    h_a(i, j) = -| i/l - j / (m - mu_i) |
    h_b(i, j) = -| i/l - (j - mu_i) / (m - mu_i) |
    delta(j)  = exp(lam * h) / Z                    for 1 <= j <= m

Both h values are evaluated through the integer-exact numerator
|i*(m - mu) - l*(j - shift)| so that argmax ties resolve identically
to exact arithmetic.  They need 0 < mu_i < m; a single word, whose
budget is all m frames, is scored with mu = m - 1.
"""

from __future__ import annotations

import math

import numpy as np


def check_lam(lam: float) -> None:
    """Reject a diagonal sharpness lam (the lambda knob) that is not finite and >= 0."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def allocate_mu(char_lengths, m: int) -> tuple[int, ...]:
    """Per-word frame budgets mu_i, each >= 1 and summing to m.

    A largest-remainder split of m frames proportional to character counts.

    Quota ties go to the lower word index.  Words rounded to zero are
    topped up to one frame by taking a frame from the largest share.
    """
    lengths = list(char_lengths)
    l = len(lengths)
    if l < 1:
        raise ValueError("char_lengths must be non-empty")
    if any(c < 1 for c in lengths):
        raise ValueError("character counts must be >= 1")
    if m < l:
        raise ValueError(f"cannot allocate {m} frames to {l} words")

    total = sum(lengths)
    # Integer arithmetic throughout: float quotas can misorder remainders
    # that are exactly tied (m * c / total at 1e-15 apart).
    mu = [m * c // total for c in lengths]
    remainders = [m * c % total for c in lengths]
    seats = m - sum(mu)
    order = sorted(range(l), key=lambda i: (-remainders[i], i))
    for i in order[:seats]:
        mu[i] += 1

    while any(v == 0 for v in mu):
        donor = max(range(l), key=lambda i: (mu[i], -i))
        recipient = mu.index(0)
        mu[donor] -= 1
        mu[recipient] += 1
    return tuple(mu)


def log_softmax(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """x minus its log-sum-exp, over all of x or along `axis`.

    Every float64 `exp` and `log` of the model runs here.  Over all of
    x the log of the sum is `math.log`; along an axis it is `np.log`.
    The two can differ in the last bit, and the golden digests pin the
    bits each form gives.
    """
    if axis is None:
        peak = x.max()
        return x - (peak + math.log(np.exp(x - peak).sum()))
    peak = x.max(axis=axis, keepdims=True)
    return x - (peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True)))


def _log_delta(i: int, l: int, m: int, mu_i: int, lam: float, end: bool) -> np.ndarray:
    """log delta over j = 0..m: -inf at 0, where no span starts or ends, then log_softmax(lam * h)."""
    if l < 1 or not (1 <= i <= l):
        raise ValueError(f"word index i={i} out of range for l={l}")
    if l == 1:
        # A single word is granted all m frames, where the h slope is
        # undefined; m - 1 keeps the distortion well-formed.
        mu_i = min(mu_i, m - 1)
    if not (0 < mu_i < m):
        raise ValueError(f"mu_i={mu_i} must satisfy 0 < mu_i < m={m}")
    shift = mu_i if end else 0
    j = np.arange(1, m + 1, dtype=np.int64)
    num = np.abs(i * (m - mu_i) - l * (j - shift))
    h = -num.astype(np.float64) / float(l * (m - mu_i))
    out = np.empty(m + 1)
    out[0] = -math.inf
    out[1:] = log_softmax(lam * h)
    out.setflags(write=False)
    return out


def log_delta_a(i: int, l: int, m: int, mu_i: int, lam: float) -> np.ndarray:
    """Log probabilities over span starts j = 0..m (slot 0 is -inf)."""
    return _log_delta(i, l, m, mu_i, lam, end=False)


def log_delta_b(i: int, l: int, m: int, mu_i: int, lam: float) -> np.ndarray:
    """Log probabilities over span ends j = 0..m (slot 0 is -inf), shifted right by mu_i."""
    return _log_delta(i, l, m, mu_i, lam, end=True)
