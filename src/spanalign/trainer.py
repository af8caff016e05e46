"""Hard EM over cluster assignments and spans.

Initialization assigns each word occurrence a random cluster from its
inventory slice, puts its span at the distortion argmax over the
candidate set, and runs one M-step.  Each EM iteration then alternates
a per-word independent argmax (E) with relative-frequency priors and
DBA prototypes (M).

Words are scored on one path.  The distortion depends only on the
sentence and the run's fixed parameters, so a `SpanCostStore` builds
each utterance's (words x candidate spans) distortion matrix once per
run, next to the DTW cost rows.  `_utterance_scores` adds both into one
(words x spans x clusters) array per utterance, which the E-step's
argmax and final scoring read; the initializer reads the distortion.

Work that cannot change is not redone: a cluster whose member list is
unchanged keeps its prototype object (DBA is deterministic in its
members), and the store keeps each cluster's DTW cost rows while its
prototype object is the same.  Outputs are the same as recomputing
everything.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, FeatureSequence, SentencePair
from .distortion import DistortionParams, allocate_mu, log_delta_a, log_delta_b
from .dtw import dba_centroid
from .model import (
    VARIANTS,
    Alignment,
    ClusterInventory,
    ModelParams,
    WordAlignment,
    deficient_log_s_table,
    proper_log_s_rows,
    save_params,
    span_cost_rows,
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
    p0: float = DistortionParams.p0
    lam: float = DistortionParams.lam

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.dba_iterations < 1:
            raise ValueError("dba_iterations must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        DistortionParams(p0=self.p0, lam=self.lam)  # rejects a bad lam or p0


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    total_log_score: float
    seconds: float


class SpanCostStore:
    """One run's distortion matrices, and the DTW cost rows of its live clusters.

    `delta[utt_id][i - 1]` is log delta_a(a) + log delta_b(b) of word i
    on the candidate spans (a, b), built once for `distortion`.

    A deficient cluster is scored on the utterances that contain its
    word; a proper cluster on every utterance, since the normalizer runs
    over all live clusters.  `refresh` computes the rows of each cluster
    whose prototype object changed, one `span_cost_rows` call per group
    of clusters sharing an utterance list, drops clusters that are no
    longer live, and drops every row when the variant changes.
    """

    def __init__(self, corpus: Corpus, candidates_map, mu_map, distortion: DistortionParams):
        self._pairs = corpus.pairs
        self._candidates = candidates_map
        self._mu = mu_map
        self.distortion = distortion
        self.delta: dict[str, np.ndarray] = {}
        for pair in corpus:
            cands = candidates_map[pair.utt_id]
            rows = np.zeros((pair.l, len(cands)))  # a single frame admits a single span
            if pair.m > 1:
                starts, ends = np.array(cands.spans).T
                for i, mu_i in enumerate(mu_map[pair.utt_id], start=1):
                    mu = effective_mu(mu_i, pair.l, pair.m)
                    la = log_delta_a(i, pair.l, pair.m, mu, distortion)
                    lb = log_delta_b(i, pair.l, pair.m, mu, distortion)
                    rows[i - 1] = la[starts] + lb[ends]
            self.delta[pair.utt_id] = rows
        self.live: dict[int, None] = {}  # live clusters in id order
        self._variant: str | None = None
        # group key (word, or None for every utterance) -> its pairs
        self._groups: dict[str | None, tuple[SentencePair, ...]] = {}
        # cluster -> (prototype the rows belong to, utt_id -> cost row)
        self._entries: dict[int, tuple[FeatureSequence, dict[str, np.ndarray]]] = {}

    def _group(self, key: str | None) -> tuple[SentencePair, ...]:
        if key not in self._groups:
            self._groups[key] = tuple(p for p in self._pairs if key is None or key in p.target_words)
        return self._groups[key]

    def refresh(self, params: ModelParams) -> None:
        """Make `row` and `live` answer for `params`, computing only what changed."""
        if params.distortion != self.distortion:
            raise ValueError("cost store was built for other distortion parameters")
        live = self.live = dict.fromkeys(params.live_clusters())
        entries = self._entries if params.variant == self._variant else {}
        self._variant = params.variant
        self._entries = {
            f: entries[f] for f in live if f in entries and entries[f][0] is params.prototypes[f]
        }
        stale: dict[str | None, list[int]] = {}
        for f in live:
            if f not in self._entries:
                key = None if params.variant == "proper" else params.inventory.owner[f]
                stale.setdefault(key, []).append(f)
        for key, fs in stale.items():
            pairs = self._group(key)
            protos = [params.prototypes[f] for f in fs]
            cands = [self._candidates[pair.utt_id] for pair in pairs]
            for f, proto, rows in zip(fs, protos, span_cost_rows(protos, pairs, cands)):
                self._entries[f] = (proto, rows)

    def serves(self, corpus: Corpus, candidates_map, mu_map, distortion: DistortionParams) -> bool:
        """Whether this store was built for exactly these utterances, tables and distortion."""
        same = self._pairs is corpus.pairs and self._candidates is candidates_map
        return same and self._mu is mu_map and self.distortion == distortion

    def row(self, f: int, utt_id: str) -> np.ndarray:
        """Costs of cluster f on the candidate spans of one utterance."""
        return self._entries[f][1][utt_id]


@dataclass(frozen=True)
class TrainState:
    params: ModelParams
    assignments: dict[str, tuple[Assignment, ...]]
    iteration_log: tuple[IterationStats, ...]
    # The run's SpanCostStore, when training left it behind.
    costs: SpanCostStore | None = field(default=None, compare=False, repr=False)


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
        mu_map[pair.utt_id] = allocate_mu(pair.char_lengths, pair.m)
    return candidates_map, mu_map


def effective_mu(mu_i: int, l: int, m: int) -> int:
    # mu_i = m only happens for single-word sentences, where the h slope
    # is undefined; clamp to m - 1 so the distortion stays well-formed.
    return min(mu_i, m - 1) if l == 1 else mu_i


def _utterance_scores(
    pair: SentencePair, params: ModelParams, costs: SpanCostStore
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Each word's clusters, and its scores on every (candidate span, cluster).

    `clusters[i]` is word i's inventory slice in id order and
    `scores[i, s, j]` scores word i on candidate span s with cluster
    `clusters[i][j]`: (log u(f) + log s(a, b | f)) + log delta (deficient)
    or log s(f | a, b) + log delta (proper, normalized over every live
    cluster on this utterance).  Dead clusters score -inf.  Spans are
    major and clusters minor, so a first argmax over word i's (s, j)
    prefers the smaller start, then end, then cluster id.  `costs` must
    be refreshed for `params`.
    """
    clusters = [params.inventory.clusters[word] for word in pair.target_words]
    if params.variant == "proper":
        rows = proper_log_s_rows({f: costs.row(f, pair.utt_id) for f in costs.live}) if costs.live else {}
    else:
        rows = {
            f: math.log(params.u[f]) + deficient_log_s_table(costs.row(f, pair.utt_id))
            for fs in dict.fromkeys(clusters)
            for f in fs
            if f in costs.live
        }
    delta = costs.delta[pair.utt_id]
    dead = np.full(delta.shape[1], -np.inf)
    table = np.stack([rows.get(f, dead) for fs in clusters for f in fs])  # (words * k, spans)
    return clusters, table.reshape(pair.l, -1, delta.shape[1]).transpose(0, 2, 1) + delta[:, :, None]


def _align_pair(
    pair: SentencePair,
    params: ModelParams,
    candidates: CandidateSpans,
    prev: tuple[Assignment, ...] | None,
    costs: SpanCostStore,
) -> tuple[tuple[Assignment, ...], float]:
    """Per-word independent argmax over (span, cluster), one argmax per utterance.

    A word without a live cluster keeps its previous assignment; with
    none to keep, it is an error.
    """
    clusters, scores = _utterance_scores(pair, params, costs)
    flat = scores.reshape(pair.l, -1)
    best = flat.argmax(axis=1)
    maxima = flat[np.arange(pair.l), best].tolist()
    out = []
    total = 0.0
    for i, (fs, pick, score) in enumerate(zip(clusters, best.tolist(), maxima)):
        if not any(f in costs.live for f in fs):
            if prev is None:
                raise TrainError(f"{pair.utt_id}: word {i + 1} has no live cluster")
            out.append(prev[i])
            continue
        ci, j = divmod(pick, len(fs))
        out.append((fs[j], *candidates.spans[ci]))
        total += score
    return tuple(out), total


def _score_assignments(
    corpus: Corpus,
    params: ModelParams,
    candidates_map: dict[str, CandidateSpans],
    assignments: dict[str, tuple[Assignment, ...]],
    costs: SpanCostStore,
) -> dict[str, Alignment]:
    """Score every utterance's fixed assignment under `params`, in corpus order.

    Another word's cluster, a dead cluster or a span outside the candidate
    set scores -inf.
    """
    costs.refresh(params)
    out = {}
    for pair in corpus:
        assignment = assignments[pair.utt_id]
        clusters, scores = _utterance_scores(pair, params, costs)
        index = {span: s for s, span in enumerate(candidates_map[pair.utt_id].spans)}
        spans = np.array([index.get((a, b), -1) for _, a, b in assignment])
        hit = np.array(clusters) == np.array([f for f, _, _ in assignment])[:, None]
        picked = scores[np.arange(pair.l), spans, hit.argmax(axis=1)]
        picked = np.where(hit.any(axis=1) & (spans >= 0), picked, -np.inf).tolist()
        words = (WordAlignment(f, a, b, score) for (f, a, b), score in zip(assignment, picked))
        out[pair.utt_id] = Alignment(pair.utt_id, tuple(words))
    return out


def e_step(
    corpus: Corpus,
    params: ModelParams,
    candidates_map: dict[str, CandidateSpans],
    mu_map: dict[str, tuple[int, ...]],
    prev_assignments: dict[str, tuple[Assignment, ...]] | None = None,
    *,
    costs: SpanCostStore | None = None,
) -> tuple[dict[str, tuple[Assignment, ...]], float]:
    """Re-align every word; returns the new assignments and their total log score.

    `costs` carries the run's store over from earlier passes.
    """
    if costs is None:
        costs = SpanCostStore(corpus, candidates_map, mu_map, params.distortion)
    costs.refresh(params)
    assignments = {}
    total = 0.0
    for pair in corpus:
        prev = prev_assignments.get(pair.utt_id) if prev_assignments else None
        assignments[pair.utt_id], score = _align_pair(
            pair, params, candidates_map[pair.utt_id], prev, costs
        )
        total += score
    return assignments, total


def _members(
    corpus: Corpus, assignments: dict[str, tuple[Assignment, ...]]
) -> dict[int, list[tuple[str, int, int]]]:
    """Each cluster's member list: its (utt_id, a, b) triples in corpus order."""
    members: dict[int, list[tuple[str, int, int]]] = {}
    for pair in corpus:
        for (f, a, b) in assignments[pair.utt_id]:
            members.setdefault(f, []).append((pair.utt_id, a, b))
    return members


def m_step(
    corpus: Corpus,
    assignments: dict[str, tuple[Assignment, ...]],
    config: TrainConfig,
    prev_params: ModelParams,
    *,
    prev_assignments: dict[str, tuple[Assignment, ...]] | None = None,
) -> ModelParams:
    """Relative-frequency priors and DBA prototypes from the hard assignments.

    Zero-count clusters become dead: u goes to 0 and the previous
    prototype (possibly None) is carried along unchanged.  When
    `prev_params` is the M-step of `prev_assignments`, a cluster whose
    member list did not change keeps its previous prototype object, which
    DBA would rebuild identically.
    """
    n = prev_params.inventory.n_clusters
    members = _members(corpus, assignments)
    prev_members = _members(corpus, prev_assignments) if prev_assignments is not None else {}
    counts = np.zeros(n)
    for f, triples in members.items():
        counts[f] = len(triples)
    u = counts / counts.sum()

    sources = {pair.utt_id: pair.source for pair in corpus}
    prototypes = list(prev_params.prototypes)
    for f in sorted(members):
        if members[f] != prev_members.get(f):
            spans = [sources[utt_id].frames[a - 1 : b] for utt_id, a, b in members[f]]
            centroid = dba_centroid(spans, iterations=config.dba_iterations)
            prototypes[f] = FeatureSequence(centroid, sources[members[f][0][0]].frame_shift_ms)
    return ModelParams(
        inventory=prev_params.inventory,
        u=u,
        prototypes=tuple(prototypes),
        distortion=prev_params.distortion,
        variant=prev_params.variant,
    )


def initialize(
    corpus: Corpus,
    config: TrainConfig,
    candidates_map: dict[str, CandidateSpans],
    mu_map: dict[str, tuple[int, ...]],
) -> TrainState:
    """Random clusters, distortion-argmax spans, then one M-step.

    The run's `SpanCostStore` serves the distortion argmax, then keeps
    the cost rows of the iteration-0 score for the first E-step.
    """
    started = time.perf_counter()
    word_types = sorted({w for pair in corpus for w in pair.target_words})
    inventory = ClusterInventory.build(word_types, config.k)
    dparams = DistortionParams(p0=config.p0, lam=config.lam)
    rng = np.random.default_rng(config.seed)
    costs = SpanCostStore(corpus, candidates_map, mu_map, dparams)

    assignments = {}
    for pair in corpus:
        spans = candidates_map[pair.utt_id].spans
        best = costs.delta[pair.utt_id].argmax(axis=1).tolist()
        assignments[pair.utt_id] = tuple(  # one draw per word, in word order
            (inventory.clusters[word][int(rng.integers(0, config.k))], *spans[ci])
            for word, ci in zip(pair.target_words, best)
        )

    blank = ModelParams(
        inventory=inventory,
        u=np.full(inventory.n_clusters, 1.0 / inventory.n_clusters),
        prototypes=(None,) * inventory.n_clusters,
        distortion=dparams,
        variant=config.variant,
    )
    params = m_step(corpus, assignments, config, blank)

    total = 0.0
    for alignment in _score_assignments(corpus, params, candidates_map, assignments, costs).values():
        total += sum(w.log_score for w in alignment.words)
    log = IterationStats(0, total, time.perf_counter() - started)
    return TrainState(params=params, assignments=assignments, iteration_log=(log,), costs=costs)


def train(
    corpus: Corpus,
    config: TrainConfig,
    tables: tuple[dict[str, CandidateSpans], dict[str, tuple[int, ...]]],
    checkpoint_dir: Path | str | None = None,
) -> TrainState:
    """Initialization followed by `iterations` rounds of (E-step, M-step).

    `tables` is the (candidate spans, mu) pair from `build_tables`.
    """
    candidates_map, mu_map = tables
    state = initialize(corpus, config, candidates_map, mu_map)
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        save_params(state.params, Path(checkpoint_dir) / "checkpoint_iter00.json")

    params = state.params
    assignments = state.assignments
    costs = state.costs
    log = list(state.iteration_log)
    for it in range(1, config.iterations + 1):
        started = time.perf_counter()
        prev_assignments = assignments
        assignments, total = e_step(
            corpus,
            params,
            candidates_map,
            mu_map,
            prev_assignments=prev_assignments,
            costs=costs,
        )
        params = m_step(corpus, assignments, config, params, prev_assignments=prev_assignments)
        log.append(IterationStats(it, total, time.perf_counter() - started))
        if checkpoint_dir is not None:
            save_params(params, Path(checkpoint_dir) / f"checkpoint_iter{it:02d}.json")
    return TrainState(params=params, assignments=assignments, iteration_log=tuple(log), costs=costs)


def final_alignments(
    corpus: Corpus,
    state: TrainState,
    candidates_map: dict[str, CandidateSpans],
    mu_map: dict[str, tuple[int, ...]],
) -> dict[str, Alignment]:
    """Score the final assignments under the final parameters for reporting.

    Reuses the store that training left in `state.costs` when it was
    built for this corpus, these tables and this distortion.
    """
    costs = state.costs
    distortion = state.params.distortion
    if costs is None or not costs.serves(corpus, candidates_map, mu_map, distortion):
        costs = SpanCostStore(corpus, candidates_map, mu_map, distortion)
    return _score_assignments(corpus, state.params, candidates_map, state.assignments, costs)
