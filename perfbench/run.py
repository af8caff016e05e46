#!/usr/bin/env python3
"""Seeded align/eval benchmark for spanalign.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload c5 --seed 0 --seconds 30 --trace 0

The benchmark generates a synthetic corpus from the seed with
`spanalign synth`, then repeatedly launches `spanalign align` and
`spanalign eval` on it, each in a fresh interpreter, for about `--seconds`
seconds.  It checks every output and prints, as its last line, one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` they are the
per-layer ones from a traced run (see perfbench/README.md).

The program is imported from `src/` of the checkout, never from an
installed copy; without `src/spanalign` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
BASELINES = HERE / "baselines.json"

# Seed kept out of all tuning; later gains are confirmed on it.
HELD_OUT_SEED = 7919

# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 160.0
# eval is short and so noisier: after each align, eval runs at least
# EVAL_MIN_RUNS times and until EVAL_SECONDS of eval time have passed.
EVAL_MIN_RUNS = 2
EVAL_SECONDS = 1.0
# F is deterministic per seed.  On a seed that baselines.json records, a
# run whose F falls more than this below the recorded F fails its check,
# so a speed-up cannot trade away quality.  The margin only absorbs a tie
# flipped by different float rounding.
F_TOLERANCE = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]
    align: tuple[str, ...]
    f_floor: float

    @property
    def variant(self) -> str:
        return "proper" if "proper" in self.align else "deficient"


_NOISY = ("--noise-std", "0.1", "--reorder-prob", "0.1")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "c5",
            ("--no-bounds", "--sentences", "300", "--vocab-size", "60", *_NOISY, "--silence-prob", "0.3"),
            (),
            0.86,
        ),
        Workload(
            "long-bounds",
            ("--sentences", "60", "--vocab-size", "60", "--sentence-len-min", "12",
             "--sentence-len-max", "20", *_NOISY),
            (),
            0.95,
        ),
        Workload(
            "proper",
            ("--sentences", "100", "--vocab-size", "30", *_NOISY),
            ("--variant", "proper"),
            0.875,
        ),
        # Tiny corpora for perfbench/smoke_test.py; not in BENCHMARK.json.
        Workload("smoke", ("--sentences", "8", "--vocab-size", "6", *_NOISY), (), 0.5),
        Workload(
            "smoke-proper",
            ("--sentences", "8", "--vocab-size", "6", *_NOISY),
            ("--variant", "proper"),
            0.5,
        ),
    )
}

# End-to-end samples collected per untraced align; words_per_s is derived.
E2E_SAMPLES = ("align_s", "setup_s", "eval_s", "f_score", "peak_rss_mb")

ITERATIONS = 3  # align's default; one per-iteration metric each

LAYER_TIMES = {
    # per-layer metric <- (process, span name in child.py)
    "corpus.load_s": ("align", "corpus.load"),
    "segmentation.candidate_spans_s": ("align", "segmentation.candidate_spans"),
    "distortion.log_delta_s": ("align", "distortion.log_delta"),
    "dtw.span_costs_s": ("align", "dtw.span_costs"),
    "dtw.dba_s": ("align", "dtw.dba"),
    "model.span_table_s": ("align", "model.span_table"),
    "trainer.build_tables_s": ("align", "trainer.build_tables"),
    "trainer.initialize_s": ("align", "trainer.initialize"),
    "trainer.e_step_s": ("align", "trainer.e_step"),
    "trainer.m_step_s": ("align", "trainer.m_step"),
    "trainer.final_alignments_s": ("align", "trainer.final_alignments"),
    "trainer.train_self_s": ("align", "trainer.train_self"),
    "cli.write_outputs_s": ("align", "cli.write_outputs"),
    "cli.self_s": ("align", "cli.self"),
    "trace.bookkeeping_s": ("align", "trace.bookkeeping"),
    "evalkit.score_links_s": ("eval", "evalkit.score_links"),
    "corpus.read_gold_s": ("eval", "corpus.read_gold"),
    "cli.eval_write_s": ("eval", "cli.write_outputs"),
    "cli.eval_self_s": ("eval", "cli.self"),
}

LAYER_CALLS = {
    "distortion.log_delta_calls": ("align", ("trainer.log_delta_a", "trainer.log_delta_b")),
    "dtw.span_costs_calls": ("align", ("model.candidate_span_costs",)),
    "dtw.dba_calls": ("align", ("trainer.dba_centroid",)),
    "dtw.pair_dtw_calls": ("align", ("dtw.dtw_distance",)),
    "evalkit.score_links_calls": ("eval", ("cli.score_links",)),
}

LAYER_COUNTS = (
    "corpus.words",
    "corpus.frames",
    "segmentation.spans_total",
    "segmentation.spans_max",
    "segmentation.fallbacks",
    "dtw.dp_cells",
    "dtw.repeat_rows",
    "dtw.dba_members",
    "model.span_tables",
)

# Hooks that must fire in every traced run; a zero means the benchmark no
# longer reaches that layer (say, a refactor moved the call site).
REQUIRED_ALIGN_HOOKS = (
    "cli.load_corpus", "cli.build_tables", "cli.train", "cli.final_alignments",
    "cli.save_params", "cli.atomic_write_text", "trainer.candidate_spans",
    "trainer.initialize", "trainer.e_step", "trainer.m_step", "trainer.dba_centroid",
    "trainer.log_delta_a", "trainer.log_delta_b", "model.candidate_span_costs",
    "dtw.dtw_distance", "segmentation.enumerate_spans",
)
REQUIRED_EVAL_HOOKS = ("cli.read_gold_file", "cli.score_links", "cli.atomic_write_text")
VARIANT_HOOKS = {"deficient": "trainer.deficient_log_s_table", "proper": "trainer.proper_log_s_rows"}


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Launch:
    code: int
    wall_s: float
    peak_rss_mb: float
    record: dict | None
    stderr: str
    launched: float


def _child_env() -> dict:
    """The caller's environment, minus what would change which code runs.

    child.py puts the checkout's src/ first on sys.path itself, and align
    always gets --threads 1, so SPANALIGN_THREADS must not leak in.
    """
    env = dict(os.environ)
    env.pop("SPANALIGN_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def launch(mode: str, argv: list[str], workdir: Path, tag: str, deadline: float) -> Launch:
    """Run child.py in a fresh interpreter; wall time spans launch to exit."""
    record_path = workdir / f"{tag}.record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--src", str(SRC), "--record", str(record_path),
           "--mode", mode, "--", *argv]
    timeout = max(1.0, deadline - time.monotonic())
    with open(workdir / f"{tag}.stdout", "wb") as out, open(workdir / f"{tag}.stderr", "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # wait4 reports the peak RSS of this child alone.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.exists() else None
    stderr = (workdir / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")
    return Launch(proc.returncode, wall, usage.ru_maxrss / 1024.0, record, stderr[-2000:], launched)


# ---------------------------------------------------------------------------
# corpus and output checks
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    dir: Path
    words: dict[tuple[str, int], str]  # (utt_id, word index) -> token
    frames: dict[str, int]
    gold: set

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_frames(self) -> int:
        return sum(self.frames.values())


def make_corpus(workload: Workload, seed: int, workdir: Path, deadline: float) -> Corpus:
    cdir = workdir / "corpus"
    res = launch("plain", ["synth", "--output", str(cdir), "--seed", str(seed), *workload.synth],
                 workdir, "synth", deadline)
    if res.code != 0:
        raise BenchError(f"synth failed with code {res.code}: {res.stderr}")
    utt_ids = (cdir / "manifest.txt").read_text(encoding="utf-8").split()
    sentences = (cdir / "translations.txt").read_text(encoding="utf-8").splitlines()
    words = {}
    frames = {}
    for utt_id, sentence in zip(utt_ids, sentences, strict=True):
        for idx, token in enumerate(sentence.split()):
            words[(utt_id, idx)] = token
        with open(cdir / f"{utt_id}.feat", encoding="utf-8") as handle:
            frames[utt_id] = int(handle.readline().split()[0])
    gold = set()
    for line in (cdir / "gold.tsv").read_text(encoding="utf-8").splitlines():
        utt_id, w_idx, start, end = line.split("\t")
        gold.update((utt_id, int(w_idx), j) for j in range(int(start), int(end)))
    return Corpus(cdir, words, frames, gold)


def align_argv(workload: Workload, corpus: Corpus, out: Path) -> list[str]:
    return ["align", "--manifest", str(corpus.dir / "manifest.txt"), "--features", str(corpus.dir),
            "--translations", str(corpus.dir / "translations.txt"), "--output", str(out),
            "--threads", "1", *workload.align]


def eval_argv(corpus: Corpus, out: Path, report: Path) -> list[str]:
    return ["eval", str(out / "alignments.tsv"), str(corpus.dir / "gold.tsv"), "--output", str(report)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_alignments(corpus: Corpus, path: Path) -> tuple[list[str], float]:
    """Problems with an alignments.tsv, and its micro F computed here."""
    problems = []
    seen = set()
    pred = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 7:
            problems.append(f"line {lineno}: {len(parts)} fields")
            continue
        utt_id, w_idx, word, _, start, end, score = parts
        key = (utt_id, int(w_idx))
        if key in seen:
            problems.append(f"line {lineno}: second row for {key}")
        seen.add(key)
        if corpus.words.get(key) != word:
            problems.append(f"line {lineno}: {key} is not word {word!r} of the corpus")
        start, end = int(start), int(end)
        if not (0 <= start < end <= corpus.frames.get(utt_id, -1)):
            problems.append(f"line {lineno}: span [{start}, {end}) outside {utt_id}")
        if not math.isfinite(float(score)):
            problems.append(f"line {lineno}: log_score {score}")
        pred.update((utt_id, key[1], j) for j in range(start, end))
    if len(seen) != corpus.n_words:
        problems.append(f"{len(seen)} distinct rows for {corpus.n_words} words")
    hits = len(pred & corpus.gold)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(corpus.gold) if corpus.gold else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return problems[:5], f_score


def f_problems(workload: Workload, baseline: dict | None, f_score: float) -> list[str]:
    """F below the workload's floor, or below the F recorded for the seed."""
    problems = []
    if f_score < workload.f_floor:
        problems.append(f"F = {f_score!r} below the floor {workload.f_floor}")
    if baseline is not None and f_score < baseline["f_score"] - F_TOLERANCE:
        problems.append(f"F = {f_score!r} below {baseline['f_score']!r} recorded for this seed"
                        f" (tolerance {F_TOLERANCE})")
    return problems


def report_f(report: Path) -> float:
    for line in (report / "report.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("corpus\t"):
            return float(line.split("\t")[4])
    raise ValueError("report.tsv has no corpus row")


# ---------------------------------------------------------------------------
# one measured iteration
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark run: samples, failures and output digests."""

    def __init__(self, workload: Workload, seed: int, trace: bool, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.deadline = deadline
        self.baseline = recorded_baseline(workload, seed)
        self.corpus = make_corpus(workload, seed, workdir, deadline)
        self.samples: dict[str, list[float]] = {name: [] for name in E2E_SAMPLES}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[tuple[str, str]] = set()
        self.traces: list[tuple[dict, dict]] = []
        self.traced_align_s: list[float] = []
        self.versions: dict = {}

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def _checked(self, res: Launch, what: str) -> bool:
        if res.code != 0:
            self.fail(f"{what} exited with code {res.code}: {res.stderr.strip()[-500:]}")
            return False
        if res.record is None:
            self.fail(f"{what} wrote no record")
            return False
        self.versions = {"python": res.record["python"], "numpy": res.record["numpy"]}
        return True

    def _setup_s(self, res: Launch) -> float | None:
        entered = res.record.get("train_entered_monotonic") if res.record else None
        return None if entered is None else entered - res.launched

    def iteration(self, tag: str, traced: bool) -> None:
        """One align (with its checks and evals); a failed check fails the iteration."""
        self.attempted += 1
        before = len(self.problems)
        out = self.workdir / f"{tag}.out"
        res = launch("trace" if traced else "full", align_argv(self.workload, self.corpus, out),
                     self.workdir, f"{tag}.align", self.deadline)
        if self._checked(res, "align"):
            try:
                self._after_align(tag, out, res, traced)
            except (OSError, ValueError) as exc:
                self.fail(f"unreadable output: {exc}")
        if len(self.problems) > before:
            self.failed += 1

    def _evals(self, tag: str, out: Path, f_here: float, traced: bool) -> dict | None:
        """Evaluate one align output; the last eval's record, or None if one failed."""
        started = time.monotonic()
        k = 0
        while True:
            k += 1
            report = self.workdir / f"{tag}.report{k}"
            ev = launch("trace" if traced else "plain", eval_argv(self.corpus, out, report),
                        self.workdir, f"{tag}.eval{k}", self.deadline)
            if not self._checked(ev, "eval"):
                return None
            f_eval = report_f(report)
            if abs(f_eval - f_here) > 1e-12:
                self.fail(f"eval reports F = {f_eval!r}, the alignments give {f_here!r}")
            if traced:
                return ev.record
            self.samples["eval_s"].append(ev.wall_s)
            if self.trace:
                # A traced run reports no eval_s; one eval checks the output.
                return ev.record
            if k >= EVAL_MIN_RUNS and time.monotonic() - started >= EVAL_SECONDS:
                return ev.record

    def _after_align(self, tag: str, out: Path, res: Launch, traced: bool) -> None:
        problems, f_here = check_alignments(self.corpus, out / "alignments.tsv")
        for problem in problems:
            self.fail(f"alignments.tsv {problem}")
        self.digests.add((sha256(out / "alignments.tsv"), sha256(out / "checkpoint.json")))
        for problem in f_problems(self.workload, self.baseline, f_here):
            self.fail(problem)

        eval_record = self._evals(tag, out, f_here, traced)
        if eval_record is None:
            return
        if traced:
            self.traces.append((res.record["trace"], eval_record["trace"]))
            self.traced_align_s.append(res.wall_s)
            return
        setup = self._setup_s(res)
        if setup is None:
            self.fail("align never reached trainer.train")
            return
        self.samples["setup_s"].append(setup)
        self.samples["align_s"].append(res.wall_s)
        self.samples["peak_rss_mb"].append(res.peak_rss_mb)
        self.samples["f_score"].append(f_here)


# ---------------------------------------------------------------------------
# traced metrics
# ---------------------------------------------------------------------------

def trace_metrics(run: Run) -> dict[str, float]:
    """Per-layer metrics; raises BenchError when a required hook never fired."""
    counted = []
    for align_tr, eval_tr in run.traces:
        missing = [h for h in REQUIRED_ALIGN_HOOKS if not align_tr["calls"].get(h)]
        missing += [f"eval:{h}" for h in REQUIRED_EVAL_HOOKS if not eval_tr["calls"].get(h)]
        for variant, hook in VARIANT_HOOKS.items():
            fired = bool(align_tr["calls"].get(hook))
            if fired != (variant == run.workload.variant):
                missing.append(f"{hook} ({'fired' if fired else 'silent'} under {run.workload.variant})")
        if not align_tr["counts"].get("dtw.dp_cells"):
            missing.append("dtw.dp_cells == 0")
        if len(align_tr["per_iteration"]["assignments_changed"]) != ITERATIONS:
            missing.append(f"{len(align_tr['per_iteration']['assignments_changed'])} E-steps, not {ITERATIONS}")
        if missing:
            raise BenchError("trace hooks saw no calls where the workload must make some: " + ", ".join(missing))
        counted.append(exact_counts(align_tr, eval_tr))
    if any(c != counted[0] for c in counted):
        run.fail("exact counts differ between traced runs of one seed")
        run.failed = run.attempted
    counts = counted[0]

    metrics: dict[str, float] = {}
    for name, (proc, span) in LAYER_TIMES.items():
        idx = 0 if proc == "align" else 1
        metrics[name] = statistics.median(tr[idx]["self_s"].get(span, 0.0) for tr in run.traces)
    metrics.update(counts)
    # Untraced and traced aligns alternate, so both medians cover the same
    # stretch of host time and the same number of samples.
    metrics["trace.align_s"] = statistics.median(run.traced_align_s)
    metrics["trace.overhead_s"] = metrics["trace.align_s"] - statistics.median(run.samples["align_s"])
    return metrics


def exact_counts(align_tr: dict, eval_tr: dict) -> dict[str, float]:
    """Counts, and ratios of counts, that must repeat exactly for a seed."""
    counts = {name: align_tr["counts"].get(name, 0) for name in LAYER_COUNTS}
    for name, (proc, hooks) in LAYER_CALLS.items():
        calls = (align_tr if proc == "align" else eval_tr)["calls"]
        counts[name] = sum(calls.get(h, 0) for h in hooks)
    utterances = align_tr["counts"]["segmentation.utterances"]
    counts["segmentation.spans_mean"] = counts["segmentation.spans_total"] / utterances
    counts["dtw.repeat_row_ratio"] = counts["dtw.repeat_rows"] / counts["dtw.span_costs_calls"]
    for key, series in align_tr["per_iteration"].items():
        for it, value in enumerate(series, start=1):
            counts[f"trainer.{key}.it{it}"] = value
    return counts


# ---------------------------------------------------------------------------
# host state, baselines and reporting
# ---------------------------------------------------------------------------

def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs right now.

    Steal ticks miss contention from other tenants on shared cores; this
    loop slows down with it, as spanalign's pure-Python DTW does.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def host_snapshot() -> dict:
    snap = {"loop_ms": host_loop_ms()}
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            snap["steal_ticks"] = int(handle.readline().split()[8])
        with open("/proc/loadavg", encoding="ascii") as handle:
            snap["loadavg"] = [float(v) for v in handle.read().split()[:3]]
    except (OSError, IndexError, ValueError):
        pass
    return snap


def environment(run: Run, start: dict, end: dict) -> dict:
    env = {
        **run.versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "align_threads": 1,
        "corpus_words": run.corpus.n_words,
        "corpus_frames": run.corpus.n_frames,
        "loadavg_start": start.get("loadavg"),
        "loadavg_end": end.get("loadavg"),
        "host_loop_ms_start": start["loop_ms"],
        "host_loop_ms_end": end["loop_ms"],
    }
    if "steal_ticks" in start and "steal_ticks" in end:
        env["steal_ticks"] = end["steal_ticks"] - start["steal_ticks"]
    return env


def recorded_baseline(workload: Workload, seed: int) -> dict | None:
    """Digests and F that baselines.json records for this seed, if any."""
    if not BASELINES.exists():
        return None
    return json.loads(BASELINES.read_text(encoding="utf-8")).get(workload.name, {}).get(str(seed))


def baseline_status(run: Run) -> str:
    if run.baseline is None:
        return "not recorded for this seed"
    if len(run.digests) != 1:
        return "none"
    aln, ckpt = next(iter(run.digests))
    expected = [run.baseline["alignments"], run.baseline["checkpoint"]]
    return "match" if [aln, ckpt] == expected else "DIFFERS"


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: Workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    host_start = host_snapshot()
    run = Run(workload, seed, trace, workdir, hard_deadline)
    measure_end = time.monotonic() + seconds

    n = 0
    if trace:
        # Untraced and traced aligns alternate: the untraced ones are the
        # reference for trace.overhead_s, and the two or more traced ones
        # must reproduce their exact counts.
        while n < 2 or time.monotonic() < measure_end:
            n += 1
            run.iteration(f"it{n}", traced=False)
            run.iteration(f"tr{n}", traced=True)
            if time.monotonic() > hard_deadline - 60 or n >= 3:
                break
    else:
        while n < 1 or time.monotonic() < measure_end:
            n += 1
            run.iteration(f"it{n}", traced=False)
            if time.monotonic() > hard_deadline - 30:
                break
    if len(run.digests) > 1:
        run.fail("alignments.tsv/checkpoint.json differ between the aligns of this run")
        run.failed = run.attempted

    empty = [name for name, values in run.samples.items() if not values and not trace]
    if not run.samples["align_s"] or empty or (trace and not run.traces):
        raise BenchError(f"no complete align/eval iteration (no {empty or 'align_s'}): "
                         + "; ".join(run.problems[:3]))

    if trace:
        metrics = trace_metrics(run)
    else:
        metrics = {name: statistics.median(values) for name, values in run.samples.items()}
        metrics["words_per_s"] = run.corpus.n_words / metrics["align_s"]
    units = metric_units(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    host_end = host_snapshot()
    print("env " + json.dumps(environment(run, host_start, host_end)))
    for aln, ckpt in sorted(run.digests):
        print(f"outputs alignments.tsv sha256={aln} checkpoint.json sha256={ckpt}")
    print(f"baseline {baseline_status(run)}")
    for name in units:
        if trace:
            print(f"{name} {metrics[name]!r} {units[name]}")
        elif name in run.samples:
            shown = " ".join(f"{v:.4g}" for v in run.samples[name])
            print(f"{name} {metrics[name]!r} {units[name]} (median of {len(run.samples[name])}: {shown})")
        else:
            print(f"{name} {metrics[name]!r} {units[name]} (words / median align_s)")
    print(f"failed_frac {run.failed}/{run.attempted} = {run.failed / run.attempted!r}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded align/eval benchmark for spanalign.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int,
                        help=f"corpus seed; {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "spanalign" / "cli.py").is_file():
        print(f"error: no spanalign sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
