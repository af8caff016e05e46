"""Joint model: cluster inventory, unigram prior, DTW span likelihoods.

A word occurrence e_i is explained by a cluster f from e_i's own slice
of the inventory (the translation table is fixed 0/1), a span (a, b) of
the utterance, the span distortion, and a DTW likelihood tying the
cluster prototype to the span's frames.  Two likelihood variants exist:

  deficient  s(a, b | f) = exp(-DTW^2) normalized over the candidate
             span set, scored together with the cluster prior u(f)
  proper     s(f | a, b) = exp(-DTW^2) normalized over all live
             clusters, scored without u

A cluster is live when its prototype exists and u(f) > 0; dead clusters
keep their last prototype but drop out of normalizers and argmaxes.
This module computes span costs and turns them into per-cluster span
tables; the trainer adds log u(f) and the distortion to them to score
words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import SentencePair, atomic_write_text, frame_array
from .distortion import log_softmax
from .dtw import SpanLanes, candidate_span_costs

VARIANTS = ("deficient", "proper")
CHECKPOINT_VERSION = 1


def check_variant(variant: str) -> None:
    """Reject a span likelihood variant that is not one of `VARIANTS`."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass(frozen=True)
class ClusterInventory:
    """k cluster ids per word type: word n of `words` owns ids n*k .. n*k+k-1.

    Scoring reshapes the slices as (words, k) and breaks ties by cluster id.
    """

    words: tuple[str, ...]  # sorted and unique, as `build` makes them
    k: int
    clusters: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)  # word -> its ids
    owner: dict[int, str] = field(init=False, repr=False, compare=False)  # id -> its word

    def __post_init__(self):
        clusters = {word: tuple(range(n * self.k, (n + 1) * self.k)) for n, word in enumerate(self.words)}
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "owner", {f: word for word, fs in clusters.items() for f in fs})

    @classmethod
    def build(cls, word_types: Iterable[str], k: int) -> "ClusterInventory":
        return cls(tuple(sorted(set(word_types))), k)

    @property
    def n_clusters(self) -> int:
        return len(self.owner)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Everything the scorer needs: inventory, prior, prototypes, distortion sharpness lam."""

    inventory: ClusterInventory
    u: np.ndarray
    prototypes: tuple[np.ndarray | None, ...]  # read-only (m, d) frame arrays
    lam: float = 0.5
    variant: str = "deficient"

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        n = self.inventory.n_clusters
        if u.shape != (n,):
            raise ValueError(f"u must have shape ({n},), got {u.shape}")
        if (u < 0).any() or not np.isfinite(u).all():
            raise ValueError("u must be non-negative and finite")
        if abs(u.sum() - 1.0) > 1e-9:
            raise ValueError(f"u must sum to 1, got {u.sum()!r}")
        if len(self.prototypes) != n:
            raise ValueError("prototype list length must match cluster count")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        protos = tuple(p if p is None else frame_array(p) for p in self.prototypes)
        object.__setattr__(self, "prototypes", protos)

    def live_clusters(self) -> tuple[int, ...]:
        return tuple(
            f
            for f in range(self.inventory.n_clusters)
            if self.u[f] > 0.0 and self.prototypes[f] is not None
        )


# ---------------------------------------------------------------------------
# span tables
# ---------------------------------------------------------------------------

def span_cost_rows(
    prototypes: Sequence[np.ndarray],
    pairs: Sequence[SentencePair],
    candidates: Sequence[Sequence[tuple[int, int]]],
) -> list[dict[str, np.ndarray]]:
    """DTW costs from each prototype to every candidate span of every pair.

    Item k maps each pair's utt_id to prototype k's costs on that pair's
    candidates, in their order.  Each prototype takes one
    `candidate_span_costs` call over the pairs laid end to end, and all
    of them share one lane layout; no span crosses an utterance, so each
    row equals a call on its utterance alone.
    """
    if not pairs:
        return [{} for _ in prototypes]
    frames = np.concatenate([pair.frames for pair in pairs])
    spans = []
    cuts = {}  # utt_id -> its candidates' positions in `spans`
    shift = 0
    for pair, cands in zip(pairs, candidates):
        cuts[pair.utt_id] = slice(len(spans), len(spans) + len(cands))
        spans.extend((a + shift, b + shift) for a, b in cands)
        shift += pair.m
    lanes = SpanLanes(frames, spans)
    costs = (candidate_span_costs(proto, frames, lanes) for proto in prototypes)
    return [{utt_id: row[cut] for utt_id, cut in cuts.items()} for row in costs]


def deficient_log_s_table(costs: np.ndarray) -> np.ndarray:
    """log s(a, b | f) from one prototype's costs over a candidate set: softmax of -DTW^2."""
    return log_softmax(-(costs * costs))


def proper_log_s_rows(costs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """log s(f | a, b) per live cluster f from their cost rows: softmax of -DTW^2 over f."""
    rows = np.stack(list(costs.values()))
    log_s = log_softmax(-(rows * rows), axis=0)
    return {f: log_s[idx] for idx, f in enumerate(costs)}


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_params(params: ModelParams, path: Path | str, frame_shift_ms: float) -> None:
    """Dump parameters as versioned JSON; floats round-trip via repr.

    Every prototype records `frame_shift_ms`, the frame shift of the corpus.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "variant": params.variant,
        "distortion": {"p0": 0.0, "lambda": params.lam},  # format 1 keeps a null-span mass of 0
        "clusters": {w: list(fs) for w, fs in params.inventory.clusters.items()},
        "u": [float(v) for v in params.u],
        "prototypes": [
            None
            if proto is None
            else {"frame_shift_ms": frame_shift_ms, "frames": proto.tolist()}
            for proto in params.prototypes
        ],
    }
    atomic_write_text(path, json.dumps(payload))
