"""Property-based acceptance suite.

The reference corpora behind the published frame-accuracy figures are
licensed and unreleased, so nothing here tries to reproduce those
numbers.  Each test below checks one substituted, self-contained
property on synthetic data or against an exhaustive oracle, and each
carries an explicit runtime budget.  Run with -v to get one verdict
line per criterion.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spanalign.cli import _file_report, _split_f, main
from spanalign.corpus import load_corpus
from spanalign.distortion import log_delta_a, log_delta_b
from spanalign.dtw import dba_centroid, dtw_distance, frame_distances
from spanalign.segmentation import SegmentationConfig
from spanalign.trainer import (
    Tables,
    TrainConfig,
    TrainState,
    build_tables,
    distortion_rows,
    e_step,
    final_alignments,
    train,
)

from corpus_flags import corpus_flags
from oracles import (
    analytic_delta_argmax,
    brute_force_word_argmax,
    exhaustive_dtw,
    naive_baseline,
    word_log_score,
)
from test_trainer import _tiny_instance


def _synth(out_dir, *extra):
    code = main(["synth", "--output", str(out_dir), *extra])
    assert code == 0


def _align(corpus_dir, out_dir, *extra):
    code = main(
        [
            "align",
            *corpus_flags(corpus_dir, gold=True),
            "--output", str(out_dir),
            *extra,
        ]
    )
    assert code == 0


def _load_normalized(corpus_dir):
    return load_corpus(
        corpus_dir / "manifest.txt",
        corpus_dir,
        corpus_dir / "translations.txt",
        corpus_dir / "gold.tsv",
        normalize=True,
    )


@pytest.fixture(scope="module")
def clean_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "clean"
    _synth(out)
    return out


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    """One deficient-variant training run on the noisy corpus, shared below."""
    started = time.perf_counter()
    corpus_dir = tmp_path_factory.mktemp("accept") / "noisy"
    _synth(corpus_dir, "--noise-std", "0.1", "--reorder-prob", "0.1")
    corpus = _load_normalized(corpus_dir)
    tables = build_tables(corpus, SegmentationConfig())
    state = train(corpus, TrainConfig(), tables=tables)
    alignments = final_alignments(corpus, state, tables)
    seconds = time.perf_counter() - started
    return corpus, tables, state, alignments, seconds


def test_reference_figures_substituted_by_synthetic_gold(clean_corpus_dir):
    # The published evaluation corpora cannot ship with the package, so
    # every quality criterion runs against generated data whose gold
    # links are exact by construction: each link lands inside exactly
    # one word span and every word has at least one link.
    corpus = _load_normalized(clean_corpus_dir)
    assert corpus.gold is not None and len(corpus.gold) == len(corpus)
    for pair in corpus:
        words = {w for w, _ in corpus.gold[pair.utt_id]}
        assert words == set(range(pair.l))


def test_dtw_cost_matches_exhaustive_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        mp = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        x = rng.standard_normal((m, dim))
        y = rng.standard_normal((mp, dim))
        got, _ = dtw_distance(frame_distances(x, y))
        want = exhaustive_dtw(x, y)
        assert abs(got - want) <= 1e-12
    assert time.perf_counter() - started < 5.0


def test_distortion_vectors_normalize_and_peak_on_diagonal():
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    for _ in range(1000):
        l = int(rng.integers(1, 9))
        i = int(rng.integers(1, l + 1))
        m = int(rng.integers(2, 121))
        mu_i = int(rng.integers(1, m))
        lam = float(rng.uniform(0.05, 3.0))
        for log_vector, shifted in ((log_delta_a, False), (log_delta_b, True)):
            vec = np.exp(log_vector(i, l, m, mu_i, lam))
            assert abs(vec.sum() - 1.0) <= 1e-9
            got = int(np.argmax(vec[1:])) + 1
            assert got == analytic_delta_argmax(i, l, m, mu_i, shifted)
    assert time.perf_counter() - started < 5.0


@pytest.mark.parametrize("variant", ["deficient", "proper"])
def test_e_step_equals_exhaustive_argmax(variant):
    started = time.perf_counter()
    rng = np.random.default_rng(13 if variant == "deficient" else 14)
    for _ in range(25):
        pair, params, candidates, mu = _tiny_instance(rng, variant)
        from spanalign.corpus import Corpus

        tables = Tables(Corpus((pair,)), {"tiny": candidates})
        assignments, total = e_step(
            tables.corpus, params, tables, distortion_rows(tables, params.lam)
        )
        expected = 0.0
        for i, word in enumerate(pair.target_words, start=1):
            score, triple = brute_force_word_argmax(
                i, word, pair, params, candidates, mu[i - 1], word_log_score
            )
            assert assignments["tiny"][i - 1] == triple
            expected += score
        assert total == pytest.approx(expected, abs=1e-12)
    assert time.perf_counter() - started < 10.0


def test_noiseless_corpus_recovered_exactly(clean_corpus_dir, tmp_path):
    started = time.perf_counter()
    run_dir = tmp_path / "run"
    _align(clean_corpus_dir, run_dir, "--threads", "1")
    report = _file_report(str(run_dir / "alignments.tsv"), str(clean_corpus_dir / "gold.tsv"))
    precision, recall, f_score = report.precision, report.recall, report.f_score
    assert f_score == 1.0
    assert precision == 1.0 and recall == 1.0
    assert time.perf_counter() - started < 120.0


def test_noisy_recovery_beats_character_length_baseline(noisy_run):
    started = time.perf_counter()
    corpus, _, _, alignments, train_seconds = noisy_run
    ids = [pair.utt_id for pair in corpus]
    model_f = _split_f(alignments, corpus.gold, ids)
    naive = {pair.utt_id: naive_baseline(pair) for pair in corpus}
    naive_f = _split_f(naive, corpus.gold, ids)
    assert model_f >= 0.85
    assert model_f > naive_f
    assert train_seconds + time.perf_counter() - started < 300.0


def test_deficient_variant_outscores_proper_with_shared_prototypes(noisy_run):
    started = time.perf_counter()
    corpus, tables, state, _, train_seconds = noisy_run

    def realign_f(params):
        assignments, _ = e_step(
            corpus, params, tables, state.delta, prev_assignments=state.assignments
        )
        probe = TrainState(params=params, assignments=assignments, iteration_log=(), delta=state.delta)
        alignments = final_alignments(corpus, probe, tables)
        return _split_f(alignments, corpus.gold, [pair.utt_id for pair in corpus])

    deficient_f = realign_f(state.params)
    proper_f = realign_f(dataclasses.replace(state.params, variant="proper"))
    assert deficient_f >= proper_f
    assert train_seconds + time.perf_counter() - started < 600.0


def test_alignments_identical_across_thread_counts(clean_corpus_dir, tmp_path):
    run1 = tmp_path / "threads1"
    run4 = tmp_path / "threads4"
    _align(clean_corpus_dir, run1, "--threads", "1")
    _align(clean_corpus_dir, run4, "--threads", "4")
    assert (run1 / "alignments.tsv").read_bytes() == (run4 / "alignments.tsv").read_bytes()
    assert (run1 / "checkpoint.json").read_bytes() == (run4 / "checkpoint.json").read_bytes()


def test_outputs_identical_across_hash_seeds(tmp_path):
    # Output must not depend on set or dict-of-str iteration order, which
    # PYTHONHASHSEED changes between processes.
    script = (
        "import sys\n"
        "from spanalign.cli import main\n"
        "out = sys.argv[1]\n"
        "corpus = out + '/corpus'\n"
        "steps = [['synth', '--output', corpus, '--sentences', '20', '--no-bounds']]\n"
        "for variant in ('deficient', 'proper'):\n"
        "    run = f'{out}/{variant}'\n"
        "    steps.append(['align', '--manifest', corpus + '/manifest.txt', '--features', corpus,\n"
        "                  '--translations', corpus + '/translations.txt', '--output', run,\n"
        "                  '--variant', variant])\n"
        "    steps.append(['eval', run + '/alignments.tsv', corpus + '/gold.tsv', '--output', run])\n"
        "for argv in steps:\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script, str(out)], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        names = ["alignments.tsv", "checkpoint.json", "report.tsv", "report.txt"]
        files = {}
        for variant in ("deficient", "proper"):
            run = out / variant
            iters = sorted(p.name for p in run.glob("checkpoint_iter*.json"))
            assert iters
            files.update({f"{variant}/{n}": (run / n).read_bytes() for n in [*names, *iters]})
        outputs.append(files)
    assert outputs[0] == outputs[1]


def test_dba_objective_never_increases():
    rng = np.random.default_rng(15)
    for _ in range(100):
        members = [
            rng.standard_normal((int(rng.integers(2, 9)), 3))
            for _ in range(int(rng.integers(2, 6)))
        ]
        _, history = dba_centroid(members, iterations=6)
        assert len(history) >= 2
        for prev, nxt in zip(history, history[1:]):
            assert nxt <= prev + 1e-9
