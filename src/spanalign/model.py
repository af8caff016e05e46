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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import FeatureSequence, SentencePair, atomic_write_text
from .distortion import DistortionParams
from .dtw import SpanLanes, candidate_span_costs
from .segmentation import CandidateSpans

VARIANTS = ("deficient", "proper")
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ClusterInventory:
    """k cluster ids per word type; `owner` maps each id back to its word."""

    clusters: dict[str, tuple[int, ...]]
    owner: dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for word, fs in self.clusters.items():
            if not fs:
                raise ValueError(f"word {word!r} has no clusters")
        ids = sorted(f for fs in self.clusters.values() for f in fs)
        if ids != list(range(len(ids))):
            raise ValueError("cluster ids must be 0..n-1, each used once")
        object.__setattr__(self, "owner", {f: word for word, fs in self.clusters.items() for f in fs})

    @classmethod
    def build(cls, word_types: Iterable[str], k: int) -> "ClusterInventory":
        if k < 1:
            raise ValueError("k must be >= 1")
        words = sorted(set(word_types))
        return cls({word: tuple(range(n * k, (n + 1) * k)) for n, word in enumerate(words)})

    @property
    def n_clusters(self) -> int:
        return len(self.owner)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Everything the scorer needs: inventory, prior, prototypes, distortion."""

    inventory: ClusterInventory
    u: np.ndarray
    prototypes: tuple[FeatureSequence | None, ...]
    distortion: DistortionParams
    variant: str = "deficient"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
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
        object.__setattr__(self, "prototypes", tuple(self.prototypes))

    def live_clusters(self) -> tuple[int, ...]:
        return tuple(
            f
            for f in range(self.inventory.n_clusters)
            if self.u[f] > 0.0 and self.prototypes[f] is not None
        )


@dataclass(frozen=True)
class WordAlignment:
    """One word's chosen cluster and 1-indexed inclusive span."""

    cluster_id: int | None
    a: int
    b: int
    log_score: float = 0.0


@dataclass(frozen=True)
class Alignment:
    utt_id: str
    words: tuple[WordAlignment, ...]


# ---------------------------------------------------------------------------
# span tables
# ---------------------------------------------------------------------------

def span_cost_rows(
    prototypes: Sequence[FeatureSequence],
    pairs: Sequence[SentencePair],
    candidates: Sequence[CandidateSpans],
) -> list[np.ndarray]:
    """DTW costs from each prototype to every candidate span of every pair.

    The utterances are laid end to end, so each prototype takes one
    `candidate_span_costs` call, and all of them share one lane layout.
    No span crosses an utterance, so item k holds exactly the
    per-utterance costs of prototype k: those of pairs[0]'s candidates,
    then pairs[1]'s, and so on.
    """
    if not pairs:
        return [np.empty(0) for _ in prototypes]
    frames = np.concatenate([pair.source.frames for pair in pairs])
    spans = []
    shift = 0
    for pair, cands in zip(pairs, candidates):
        spans.extend((a + shift, b + shift) for a, b in cands.spans)
        shift += pair.m
    lanes = SpanLanes(frames, spans)
    return [candidate_span_costs(proto.frames, frames, lanes) for proto in prototypes]


def deficient_log_s_table(costs: np.ndarray) -> np.ndarray:
    """log s(a, b | f) from one prototype's costs over a candidate set: softmax of -DTW^2."""
    neg = -(costs * costs)
    peak = neg.max()
    return neg - (peak + math.log(np.exp(neg - peak).sum()))


def proper_log_s_rows(costs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """log s(f | a, b) per live cluster f from their cost rows: softmax of -DTW^2 over f."""
    rows = np.stack([-(c * c) for c in costs.values()])
    peak = rows.max(axis=0)
    lse = peak + np.log(np.exp(rows - peak).sum(axis=0))
    log_s = rows - lse
    return {f: log_s[idx] for idx, f in enumerate(costs)}


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_params(params: ModelParams, path: Path | str) -> None:
    """Dump parameters as versioned JSON; floats round-trip via repr."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "variant": params.variant,
        "distortion": {"p0": params.distortion.p0, "lambda": params.distortion.lam},
        "clusters": {w: list(fs) for w, fs in params.inventory.clusters.items()},
        "u": [float(v) for v in params.u],
        "prototypes": [
            None
            if proto is None
            else {"frame_shift_ms": proto.frame_shift_ms, "frames": proto.frames.tolist()}
            for proto in params.prototypes
        ],
    }
    atomic_write_text(path, json.dumps(payload))


def load_params(path: Path | str) -> ModelParams:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    inventory = ClusterInventory({w: tuple(fs) for w, fs in payload["clusters"].items()})
    prototypes = tuple(
        None
        if entry is None
        else FeatureSequence(np.array(entry["frames"], dtype=np.float64), entry["frame_shift_ms"])
        for entry in payload["prototypes"]
    )
    return ModelParams(
        inventory=inventory,
        u=np.array(payload["u"], dtype=np.float64),
        prototypes=prototypes,
        distortion=DistortionParams(p0=payload["distortion"]["p0"], lam=payload["distortion"]["lambda"]),
        variant=payload["variant"],
    )
