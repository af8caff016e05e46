"""Hard EM over cluster assignments and spans.

Initialization assigns each word occurrence a random cluster from its
inventory slice, puts its span at the distortion argmax over the
candidate set, and runs one M-step.  Each EM iteration then alternates
a per-word independent argmax (E) with relative-frequency priors and
DBA prototypes (M).

Words are scored on one path.  A corpus's `Tables` hold what does not
depend on lambda: each utterance's candidate spans, and the DTW cost
rows of the live clusters, which `Tables.rows` answers for given
parameters.  Lambda enters only through the distortion (Dyer et al.
2013), so `distortion_rows` builds each utterance's (words x candidate
spans) distortion matrix once per run, and it rides on `TrainState`.
`_utterance_scores` adds both into one (words x spans x clusters)
array per utterance, which the E-step's argmax and final scoring read;
the initializer reads the distortion.

Work that cannot change is not redone: a cluster whose member list is
unchanged keeps its prototype object (DBA is deterministic in its
members), and the tables keep each cluster's DTW cost rows while its
prototype object and utterance group are the same.  Outputs are the
same as recomputing everything.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, SentencePair
from .distortion import allocate_mu, check_lam, log_delta_a, log_delta_b
from .dtw import dba_centroid
from .model import (
    ClusterInventory,
    ModelParams,
    check_variant,
    deficient_log_s_table,
    proper_log_s_rows,
    span_cost_rows,
)
from .segmentation import SegmentationConfig, candidate_spans

Assignment = tuple[int, int, int]  # (cluster id, span start, span end)
ScoredAssignment = tuple[int, int, int, float]  # an Assignment with its log score

DBA_ITERATIONS = 3  # barycenter averaging passes per M-step, in every run


class TrainError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3
    seed: int = 0
    k: int = 2
    variant: str = ModelParams.variant
    lam: float = ModelParams.lam

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        check_variant(self.variant)
        check_lam(self.lam)


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    total_log_score: float
    seconds: float
    params: ModelParams = field(compare=False, repr=False)  # the parameters this iteration ends with


class Tables:
    """One corpus's candidate spans, and the DTW cost rows of its live clusters.

    Nothing here depends on lambda, so every run on the corpus can share
    one `Tables`; `distortion_rows` builds the per-lambda part.

    A deficient cluster is scored on the utterances that contain its
    word; a proper cluster on every utterance, since the normalizer runs
    over all live clusters.  Those utterance groups are built in one
    pass over the corpus; a word that no utterance has gets none.  A
    cluster's rows are kept while its prototype object and its group are
    the same.
    """

    def __init__(self, corpus: Corpus, candidates: dict[str, tuple[tuple[int, int], ...]]):
        self.corpus = corpus
        self.candidates = candidates
        # group key (word, or None for every utterance) -> its pairs, in corpus order
        self._groups: dict[str | None, list[SentencePair]] = {None: list(corpus)}
        for pair in corpus:
            for word in dict.fromkeys(pair.target_words):
                self._groups.setdefault(word, []).append(pair)
        # cluster -> (prototype, group key, utt_id -> cost row) of its last rows
        self._entries: dict[int, tuple[np.ndarray, str | None, dict[str, np.ndarray]]] = {}

    def rows(self, corpus: Corpus, params: ModelParams) -> dict[int, dict[str, np.ndarray]]:
        """The live clusters of `params` in id order, each with its utt_id -> cost row map.

        Refuses a corpus whose pairs are not the ones these tables were
        built for.  Computes the rows of each cluster whose prototype
        object or group changed, one `span_cost_rows` call per group.
        """
        if corpus.pairs is not self.corpus.pairs:
            raise ValueError("tables were built for another corpus")
        entries = {}
        stale: dict[str | None, list[int]] = {}
        for f in params.live_clusters():
            key = None if params.variant == "proper" else params.inventory.owner[f]
            entry = self._entries.get(f)
            if entry is not None and entry[0] is params.prototypes[f] and entry[1] == key:
                entries[f] = entry
            else:
                stale.setdefault(key, []).append(f)
        for key, fs in stale.items():
            pairs = self._groups.get(key, ())
            protos = [params.prototypes[f] for f in fs]
            cands = [self.candidates[pair.utt_id] for pair in pairs]
            for f, proto, rows in zip(fs, protos, span_cost_rows(protos, pairs, cands)):
                entries[f] = (proto, key, rows)
        self._entries = entries
        return {f: entries[f][2] for f in sorted(entries)}


@dataclass(frozen=True)
class TrainState:
    params: ModelParams
    assignments: dict[str, tuple[Assignment, ...]]
    iteration_log: tuple[IterationStats, ...]
    # distortion_rows(tables, params.lam), built once per run
    delta: dict[str, np.ndarray] = field(compare=False, repr=False)


def build_tables(corpus: Corpus, seg_config: SegmentationConfig) -> Tables:
    """The corpus's tables: each utterance's candidate spans, and no cost rows yet."""
    candidates = {p.utt_id: candidate_spans(p, seg_config)[0] for p in corpus}
    return Tables(corpus, candidates)


def distortion_rows(tables: Tables, lam: float) -> dict[str, np.ndarray]:
    """Each utterance's (words x candidate spans) log delta_a(a) + log delta_b(b).

    This is the only part of a word's score that depends on lambda.
    """
    delta = {}
    for pair in tables.corpus:
        spans = tables.candidates[pair.utt_id]
        rows = np.zeros((pair.l, len(spans)))  # a single frame admits a single span
        if pair.m > 1:
            starts, ends = np.array(spans).T
            for i, mu_i in enumerate(allocate_mu(pair.char_lengths, pair.m), start=1):
                la = log_delta_a(i, pair.l, pair.m, mu_i, lam)
                lb = log_delta_b(i, pair.l, pair.m, mu_i, lam)
                rows[i - 1] = la[starts] + lb[ends]
        delta[pair.utt_id] = rows
    return delta


def _utterance_scores(
    pair: SentencePair, params: ModelParams, live: dict[int, dict[str, np.ndarray]], delta: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Each word's clusters, and its scores on every (candidate span, cluster).

    `clusters[i]` is word i's inventory slice in id order and
    `scores[i, s, j]` scores word i on candidate span s with cluster
    `clusters[i][j]`: (log u(f) + log s(a, b | f)) + log delta (deficient)
    or log s(f | a, b) + log delta (proper, normalized over every live
    cluster on this utterance).  Dead clusters score -inf.  Spans are
    major and clusters minor, so a first argmax over word i's (s, j)
    prefers the smaller start, then end, then cluster id.  `live` is
    `Tables.rows` for `params`, and `delta` is this utterance's
    distortion rows.
    """
    clusters = [params.inventory.clusters[word] for word in pair.target_words]
    if params.variant == "proper":
        rows = proper_log_s_rows({f: live[f][pair.utt_id] for f in live}) if live else {}
    else:
        rows = {
            f: math.log(params.u[f]) + deficient_log_s_table(live[f][pair.utt_id])
            for fs in dict.fromkeys(clusters)
            for f in fs
            if f in live
        }
    dead = np.full(delta.shape[1], -np.inf)
    table = np.stack([rows.get(f, dead) for fs in clusters for f in fs])  # (words * k, spans)
    return clusters, table.reshape(pair.l, -1, delta.shape[1]).transpose(0, 2, 1) + delta[:, :, None]


def _align_pair(
    pair: SentencePair,
    params: ModelParams,
    tables: Tables,
    live: dict[int, dict[str, np.ndarray]],
    delta: np.ndarray,
    prev: tuple[Assignment, ...] | None,
) -> tuple[tuple[Assignment, ...], float]:
    """Per-word independent argmax over (span, cluster), one argmax per utterance.

    A word without a live cluster keeps its previous assignment; with
    none to keep, it is an error.
    """
    clusters, scores = _utterance_scores(pair, params, live, delta)
    spans = tables.candidates[pair.utt_id]
    flat = scores.reshape(pair.l, -1)
    best = flat.argmax(axis=1)
    maxima = flat[np.arange(pair.l), best].tolist()
    out = []
    total = 0.0
    for i, (fs, pick, score) in enumerate(zip(clusters, best.tolist(), maxima)):
        if not any(f in live for f in fs):
            if prev is None:
                raise TrainError(f"{pair.utt_id}: word {i + 1} has no live cluster")
            out.append(prev[i])
            continue
        ci, j = divmod(pick, len(fs))
        out.append((fs[j], *spans[ci]))
        total += score
    return tuple(out), total


def _score_assignments(
    corpus: Corpus,
    params: ModelParams,
    tables: Tables,
    delta: dict[str, np.ndarray],
    assignments: dict[str, tuple[Assignment, ...]],
) -> dict[str, tuple[ScoredAssignment, ...]]:
    """Score every utterance's fixed assignment under `params`, in corpus order.

    Each word's score is read at its span's candidate index and its
    cluster's slot in the word's slice, so a dead cluster scores -inf.
    Training makes no other assignment: another word's cluster or a span
    outside the candidate set raises.
    """
    live = tables.rows(corpus, params)
    out = {}
    for pair in corpus:
        assignment = assignments[pair.utt_id]
        clusters, scores = _utterance_scores(pair, params, live, delta[pair.utt_id])
        index = {span: s for s, span in enumerate(tables.candidates[pair.utt_id])}
        spans = [index[a, b] for _, a, b in assignment]
        slots = [fs.index(f) for fs, (f, _, _) in zip(clusters, assignment)]
        picked = scores[np.arange(pair.l), spans, slots].tolist()
        out[pair.utt_id] = tuple((*word, score) for word, score in zip(assignment, picked))
    return out


def e_step(
    corpus: Corpus,
    params: ModelParams,
    tables: Tables,
    delta: dict[str, np.ndarray],
    prev_assignments: dict[str, tuple[Assignment, ...]] | None = None,
) -> tuple[dict[str, tuple[Assignment, ...]], float]:
    """Re-align every word; returns the new assignments and their total log score.

    `delta` is `distortion_rows(tables, params.lam)`.
    """
    live = tables.rows(corpus, params)
    assignments = {}
    total = 0.0
    for pair in corpus:
        prev = prev_assignments.get(pair.utt_id) if prev_assignments else None
        assignments[pair.utt_id], score = _align_pair(pair, params, tables, live, delta[pair.utt_id], prev)
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

    frames = {pair.utt_id: pair.frames for pair in corpus}
    prototypes = list(prev_params.prototypes)
    for f in sorted(members):
        if members[f] != prev_members.get(f):
            spans = [frames[utt_id][a - 1 : b] for utt_id, a, b in members[f]]
            prototypes[f], _ = dba_centroid(spans, iterations=DBA_ITERATIONS)
    return ModelParams(
        inventory=prev_params.inventory,
        u=u,
        prototypes=tuple(prototypes),
        lam=prev_params.lam,
        variant=prev_params.variant,
    )


def initialize(corpus: Corpus, config: TrainConfig, tables: Tables) -> TrainState:
    """Random clusters, distortion-argmax spans, then one M-step.

    Builds the run's distortion rows, which serve the distortion argmax
    here and every later pass.  Scoring iteration 0 refuses another
    corpus and leaves the cost rows in `tables` for the first E-step.
    """
    started = time.perf_counter()
    inventory = ClusterInventory.build((w for pair in corpus for w in pair.target_words), config.k)
    rng = np.random.default_rng(config.seed)
    delta = distortion_rows(tables, config.lam)

    assignments = {}
    for pair in corpus:
        spans = tables.candidates[pair.utt_id]
        best = delta[pair.utt_id].argmax(axis=1).tolist()
        assignments[pair.utt_id] = tuple(  # one draw per word, in word order
            (inventory.clusters[word][int(rng.integers(0, config.k))], *spans[ci])
            for word, ci in zip(pair.target_words, best)
        )

    blank = ModelParams(
        inventory=inventory,
        u=np.full(inventory.n_clusters, 1.0 / inventory.n_clusters),
        prototypes=(None,) * inventory.n_clusters,
        lam=config.lam,
        variant=config.variant,
    )
    params = m_step(corpus, assignments, blank)

    # Plain left-to-right adds: from Python 3.12, sum() of floats is compensated and can differ.
    total = 0.0
    for words in _score_assignments(corpus, params, tables, delta, assignments).values():
        utterance = 0.0
        for _, _, _, score in words:
            utterance += score
        total += utterance
    log = IterationStats(0, total, time.perf_counter() - started, params)
    return TrainState(params=params, assignments=assignments, iteration_log=(log,), delta=delta)


def train(corpus: Corpus, config: TrainConfig, tables: Tables) -> TrainState:
    """Initialization followed by `iterations` rounds of (E-step, M-step).

    Touches no file: each `iteration_log` row carries the parameters its
    iteration ends with, for the caller to write.
    """
    state = initialize(corpus, config, tables)
    params = state.params
    assignments = state.assignments
    log = list(state.iteration_log)
    for it in range(1, config.iterations + 1):
        started = time.perf_counter()
        prev_assignments = assignments
        # perfbench's e_step hook binds four positional arguments, then prev_assignments by name
        assignments, total = e_step(corpus, params, tables, state.delta, prev_assignments=prev_assignments)
        params = m_step(corpus, assignments, params, prev_assignments=prev_assignments)
        log.append(IterationStats(it, total, time.perf_counter() - started, params))
    return TrainState(params=params, assignments=assignments, iteration_log=tuple(log), delta=state.delta)


def final_alignments(
    corpus: Corpus, state: TrainState, tables: Tables
) -> dict[str, tuple[ScoredAssignment, ...]]:
    """Score the final assignments under the final parameters for reporting.

    Reads the run's distortion rows from `state` and the cost rows that
    training left in `tables`.
    """
    return _score_assignments(corpus, state.params, tables, state.delta, state.assignments)
