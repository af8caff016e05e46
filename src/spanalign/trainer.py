"""Hard EM over cluster assignments and spans.

Initialization assigns each word occurrence a random cluster from its
inventory slice, puts its span at the distortion argmax over the
candidate set, and runs one M-step.  Each EM iteration then alternates
a per-word independent argmax (E) with relative-frequency priors and
DBA prototypes (M).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, SentencePair
from .distortion import DistortionParams, allocate_mu, log_delta_a, log_delta_b
from .dtw import dba_centroid
from .model import (
    Alignment,
    ClusterInventory,
    ModelParams,
    WordAlignment,
    deficient_log_s_table,
    proper_log_s_rows,
    save_params,
)
from .segmentation import CandidateSpans, SegmentationConfig, candidate_spans

Assignment = tuple[int, int, int]  # (cluster id, span start, span end)


class TrainError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3
    seed: int = 0
    k: int = 2
    dba_iterations: int = 3
    variant: str = "deficient"
    p0: float = 0.0
    lam: float = 0.5

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.dba_iterations < 1:
            raise ValueError("dba_iterations must be >= 1")
        if self.variant not in ("deficient", "proper"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    total_log_score: float
    seconds: float


@dataclass(frozen=True)
class TrainState:
    params: ModelParams
    assignments: dict[str, tuple[Assignment, ...]]
    iteration_log: tuple[IterationStats, ...]


def build_tables(
    corpus: Corpus, seg_config: SegmentationConfig
) -> tuple[dict[str, CandidateSpans], dict[str, tuple[int, ...]]]:
    """Candidate spans and mu allocations per utterance."""
    candidates_map = {}
    mu_map = {}
    for pair in corpus:
        if pair.m < pair.l:
            raise TrainError(
                f"{pair.utt_id}: {pair.m} frames cannot cover {pair.l} words"
            )
        spans, _ = candidate_spans(pair, seg_config)
        candidates_map[pair.utt_id] = spans
        mu_map[pair.utt_id] = allocate_mu(pair.char_lengths, pair.m).mu
    return candidates_map, mu_map


def effective_mu(mu_i: int, l: int, m: int) -> int:
    # mu_i = m only happens for single-word sentences, where the h slope
    # is undefined; clamp to m - 1 so the distortion stays well-formed.
    return min(mu_i, m - 1) if l == 1 else mu_i


def _delta_table(
    i: int, pair: SentencePair, mu_i: int, dparams: DistortionParams, candidates: CandidateSpans
) -> np.ndarray:
    """log delta_a(a) + log delta_b(b) for word i and every candidate span (a, b)."""
    if pair.m == 1:
        return np.zeros(len(candidates))  # a single frame admits a single span
    mu = effective_mu(mu_i, pair.l, pair.m)
    la = log_delta_a(i, pair.l, pair.m, mu, dparams)
    lb = log_delta_b(i, pair.l, pair.m, mu, dparams)
    return la[candidates.starts] + lb[candidates.ends]


def _base_tables(
    pair: SentencePair, params: ModelParams, candidates: CandidateSpans
) -> dict[int, np.ndarray]:
    """Per-cluster span score tables before distortion.

    Deficient: log u(f) + log s(a, b | f).  Proper: log s(f | a, b).
    Only clusters owned by the sentence's word types are materialized
    for the deficient variant; the proper normalizer spans all live
    clusters regardless.
    """
    live = set(params.live_clusters())
    if params.variant == "proper":
        rows = proper_log_s_rows(params, pair, candidates)
        needed = set()
        for word in set(pair.target_words):
            needed.update(params.inventory.clusters.get(word, ()))
        return {f: rows[f] for f in needed & set(rows)}
    tables = {}
    for word in set(pair.target_words):
        for f in params.inventory.clusters.get(word, ()):
            if f in live and f not in tables:
                table = deficient_log_s_table(params.prototypes[f], pair, candidates)
                tables[f] = math.log(params.u[f]) + table
    return tables


def _align_pair(
    pair: SentencePair,
    params: ModelParams,
    candidates: CandidateSpans,
    mu: tuple[int, ...],
    prev: tuple[Assignment, ...] | None,
) -> tuple[tuple[Assignment, ...], float]:
    """Per-word independent argmax over (cluster, span), with fixed tie order.

    Candidates are scanned in (a, b) order and clusters in id order, so
    on score ties the smaller start, then end, then cluster id wins.
    """
    tables = _base_tables(pair, params, candidates)

    out = []
    total = 0.0
    for i, word in enumerate(pair.target_words, start=1):
        allowed = [f for f in params.inventory.clusters.get(word, ()) if f in tables]
        if not allowed:
            if prev is None:
                raise TrainError(f"{pair.utt_id}: word {i} has no live cluster")
            out.append(prev[i - 1])
            continue
        delta_vec = _delta_table(i, pair, mu[i - 1], params.distortion, candidates)
        scores = np.stack([tables[f] + delta_vec for f in allowed], axis=1)
        flat = int(np.argmax(scores))
        ci, fi = divmod(flat, len(allowed))
        out.append((allowed[fi], int(candidates.starts[ci]), int(candidates.ends[ci])))
        total += float(scores.flat[flat])
    return tuple(out), total


def _score_pair(
    pair: SentencePair,
    params: ModelParams,
    candidates: CandidateSpans,
    mu: tuple[int, ...],
    assignment: tuple[Assignment, ...],
) -> Alignment:
    """Score a fixed assignment with the same tables the E-step uses.

    A cluster outside the word's inventory slice, a dead cluster, or a
    span outside the candidate set scores -inf.
    """
    index = {span: idx for idx, span in enumerate(candidates.spans)}
    tables = _base_tables(pair, params, candidates)

    words = []
    for i, ((f, a, b), word) in enumerate(zip(assignment, pair.target_words), start=1):
        delta_vec = _delta_table(i, pair, mu[i - 1], params.distortion, candidates)
        idx = index.get((a, b))
        if f in tables and f in params.inventory.clusters.get(word, ()) and idx is not None:
            score = float(tables[f][idx] + delta_vec[idx])
        else:
            score = float("-inf")
        words.append(WordAlignment(cluster_id=f, a=a, b=b, log_score=score))
    return Alignment(pair.utt_id, tuple(words))


def _map_pairs(corpus: Corpus, fn, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, corpus.pairs))
    return [fn(pair) for pair in corpus.pairs]


def e_step(
    corpus: Corpus,
    params: ModelParams,
    candidates_map: dict[str, CandidateSpans],
    mu_map: dict[str, tuple[int, ...]],
    prev_assignments: dict[str, tuple[Assignment, ...]] | None = None,
    threads: int = 1,
) -> tuple[dict[str, tuple[Assignment, ...]], float]:
    """Re-align every word; returns the new assignments and their total log score."""

    def work(pair: SentencePair):
        prev = prev_assignments.get(pair.utt_id) if prev_assignments else None
        return _align_pair(pair, params, candidates_map[pair.utt_id], mu_map[pair.utt_id], prev)

    results = _map_pairs(corpus, work, threads)
    assignments = {pair.utt_id: r[0] for pair, r in zip(corpus.pairs, results)}
    total = sum(r[1] for r in results)
    return assignments, total


def m_step(
    corpus: Corpus,
    assignments: dict[str, tuple[Assignment, ...]],
    config: TrainConfig,
    prev_params: ModelParams,
    threads: int = 1,
) -> ModelParams:
    """Relative-frequency priors and DBA prototypes from the hard assignments.

    Zero-count clusters become dead: u goes to 0 and the previous
    prototype (possibly None) is carried along unchanged.
    """
    n = prev_params.inventory.n_clusters
    counts = np.zeros(n)
    members: dict[int, list] = {}
    for pair in corpus:
        for (f, a, b) in assignments[pair.utt_id]:
            counts[f] += 1
            members.setdefault(f, []).append(pair.source.segment(a, b))
    u = counts / counts.sum()

    live = sorted(members)

    def rebuild(f: int):
        return dba_centroid(members[f], iterations=config.dba_iterations)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rebuilt = dict(zip(live, pool.map(rebuild, live)))
    else:
        rebuilt = {f: rebuild(f) for f in live}

    prototypes = tuple(
        rebuilt.get(f, prev_params.prototypes[f]) for f in range(n)
    )
    return ModelParams(
        inventory=prev_params.inventory,
        u=u,
        prototypes=prototypes,
        distortion=prev_params.distortion,
        variant=prev_params.variant,
    )


def initialize(
    corpus: Corpus,
    config: TrainConfig,
    candidates_map: dict[str, CandidateSpans],
    mu_map: dict[str, tuple[int, ...]],
    threads: int = 1,
) -> TrainState:
    """Random clusters, distortion-argmax spans, then one M-step."""
    started = time.perf_counter()
    word_types = sorted({w for pair in corpus for w in pair.target_words})
    inventory = ClusterInventory.build(word_types, config.k)
    dparams = DistortionParams(p0=config.p0, lam=config.lam)
    rng = np.random.default_rng(config.seed)

    assignments = {}
    for pair in corpus:
        candidates = candidates_map[pair.utt_id]
        mu = mu_map[pair.utt_id]
        entry = []
        for i, word in enumerate(pair.target_words, start=1):
            slot = int(rng.integers(0, config.k))
            f = inventory.clusters[word][slot]
            delta_vec = _delta_table(i, pair, mu[i - 1], dparams, candidates)
            ci = int(np.argmax(delta_vec))
            entry.append((f, int(candidates.starts[ci]), int(candidates.ends[ci])))
        assignments[pair.utt_id] = tuple(entry)

    blank = ModelParams(
        inventory=inventory,
        u=np.full(inventory.n_clusters, 1.0 / inventory.n_clusters),
        prototypes=(None,) * inventory.n_clusters,
        distortion=dparams,
        variant=config.variant,
    )
    params = m_step(corpus, assignments, config, blank, threads=threads)

    total = 0.0
    for pair in corpus:
        alignment = _score_pair(
            pair, params, candidates_map[pair.utt_id], mu_map[pair.utt_id], assignments[pair.utt_id]
        )
        total += sum(w.log_score for w in alignment.words)
    log = IterationStats(0, total, time.perf_counter() - started)
    return TrainState(params=params, assignments=assignments, iteration_log=(log,))


def train(
    corpus: Corpus,
    config: TrainConfig,
    tables: tuple[dict[str, CandidateSpans], dict[str, tuple[int, ...]]],
    threads: int = 1,
    checkpoint_dir: Path | str | None = None,
) -> TrainState:
    """Initialization followed by `iterations` rounds of (E-step, M-step).

    `tables` is the (candidate spans, mu) pair from `build_tables`.
    """
    candidates_map, mu_map = tables
    state = initialize(corpus, config, candidates_map, mu_map, threads=threads)
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        save_params(state.params, Path(checkpoint_dir) / "checkpoint_iter00.json")

    params = state.params
    assignments = state.assignments
    log = list(state.iteration_log)
    for it in range(1, config.iterations + 1):
        started = time.perf_counter()
        assignments, total = e_step(
            corpus, params, candidates_map, mu_map, prev_assignments=assignments, threads=threads
        )
        params = m_step(corpus, assignments, config, params, threads=threads)
        log.append(IterationStats(it, total, time.perf_counter() - started))
        if checkpoint_dir is not None:
            save_params(params, Path(checkpoint_dir) / f"checkpoint_iter{it:02d}.json")
    return TrainState(params=params, assignments=assignments, iteration_log=tuple(log))


def final_alignments(
    corpus: Corpus,
    state: TrainState,
    candidates_map: dict[str, CandidateSpans],
    mu_map: dict[str, tuple[int, ...]],
) -> dict[str, Alignment]:
    """Score the final assignments under the final parameters for reporting."""
    return {
        pair.utt_id: _score_pair(
            pair,
            state.params,
            candidates_map[pair.utt_id],
            mu_map[pair.utt_id],
            state.assignments[pair.utt_id],
        )
        for pair in corpus
    }
