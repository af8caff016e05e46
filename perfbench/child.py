"""One spanalign command in a fresh interpreter, optionally traced.

Usage:
    python3 child.py --src SRC --record FILE --mode MODE -- <spanalign arguments>

MODE is one of
    plain   run the command as is (used for `synth`);
    full    hook only `spanalign.cli.train` and note when it is entered:
            set-up is everything before training starts;
    trace   hook every traced call site, time each call and count its work.

The record written to FILE is JSON: versions, the monotonic time at which
`train` was entered (CLOCK_MONOTONIC is shared by all processes, so the
parent can subtract its own launch time), and, in trace mode, self times
and counts.  The exit code is the command's exit code.

Hooks replace names at the call site (`spanalign.cli.train`, not
`spanalign.trainer.train`), because the modules import names directly and
only the caller's binding decides what runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

MODES = ("plain", "full", "trace")

# (module, attribute) -> span name.  A span's self time is its duration
# minus the time of traced spans nested in it.
TIMED = {
    ("cli", "load_corpus"): "corpus.load",
    ("cli", "read_gold_file"): "corpus.read_gold",
    ("cli", "build_tables"): "trainer.build_tables",
    ("cli", "train"): "trainer.train_self",
    ("cli", "final_alignments"): "trainer.final_alignments",
    ("cli", "save_params"): "cli.write_outputs",
    ("cli", "atomic_write_text"): "cli.write_outputs",
    ("cli", "score_links"): "evalkit.score_links",
    ("trainer", "candidate_spans"): "segmentation.candidate_spans",
    ("trainer", "initialize"): "trainer.initialize",
    ("trainer", "e_step"): "trainer.e_step",
    ("trainer", "m_step"): "trainer.m_step",
    ("trainer", "dba_centroid"): "dtw.dba",
    ("trainer", "deficient_log_s_table"): "model.span_table",
    ("trainer", "proper_log_s_rows"): "model.span_table",
    ("trainer", "log_delta_a"): "distortion.log_delta",
    ("trainer", "log_delta_b"): "distortion.log_delta",
    ("model", "candidate_span_costs"): "dtw.span_costs",
}

# Hooks that only count calls; their time stays in the caller's span
# (`dtw_distance` inside DBA, `enumerate_spans` inside candidate_spans).
COUNTED = (("dtw", "dtw_distance"), ("segmentation", "enumerate_spans"))


class Tracer:
    """Nested spans with self time, plus exact work counts.

    Work is counted from call arguments and results.  The time spent on
    that bookkeeping is charged to `trace.bookkeeping` and excluded from
    the enclosing span's self time.
    """

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.per_iteration: dict[str, list[int]] = {"assignments_changed": [], "live_clusters": []}
        self.spans_per_utt: list[int] = []
        self._stack: list[list[float]] = []
        self._seen_rows: set = set()
        self._frame_digests: dict = {}
        self._thread = threading.get_ident()

    def _charge_bookkeeping(self, started: float) -> None:
        spent = time.perf_counter() - started
        self.self_s["trace.bookkeeping"] += spent
        if self._stack:
            self._stack[-1][0] += spent

    def timed(self, hook: str, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"{name} called off the main thread; tracing needs --threads 1")
            if before is not None:
                started = time.perf_counter()
                before(*args, **kwargs)
                self._charge_bookkeeping(started)
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += elapsed - frame[0]
                self.calls[hook] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                started = time.perf_counter()
                after(result, *args, **kwargs)
                self._charge_bookkeeping(started)
            return result

        return wrapper

    def counted(self, hook: str, fn, on_error=None):
        def wrapper(*args, **kwargs):
            self.calls[hook] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise

        return wrapper

    def root(self, fn):
        """Time the whole command; the remainder after children is `cli.self`."""
        t0 = time.perf_counter()
        frame = [0.0]
        self._stack.append(frame)
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            self.self_s["cli.self"] += elapsed - frame[0]
            self.self_s["trace.main"] += elapsed

    # -- work counters ------------------------------------------------------

    def on_span_costs(self, proto, frames, spans) -> None:
        by_start: dict[int, int] = {}
        for a, b in spans:
            if b > by_start.get(a, 0):
                by_start[a] = b
        n = proto.shape[0]
        self.counts["dtw.dp_cells"] += sum(n * (b - a + 1) for a, b in by_start.items())
        cached = self._frame_digests.get(id(frames))
        if cached is None or cached[0] is not frames:
            # Keep the array alive so its id cannot be reused by another one.
            cached = (frames, hashlib.sha1(frames.tobytes()).hexdigest())
            self._frame_digests[id(frames)] = cached
        key = (hashlib.sha1(proto.tobytes()).hexdigest(), proto.shape, cached[1], tuple(spans))
        if key in self._seen_rows:
            self.counts["dtw.repeat_rows"] += 1
        else:
            self._seen_rows.add(key)

    def on_dba(self, members, *args, **kwargs) -> None:
        self.counts["dtw.dba_members"] += len(members)

    def on_deficient_table(self, result, *args, **kwargs) -> None:
        self.counts["model.span_tables"] += 1

    def on_proper_rows(self, result, *args, **kwargs) -> None:
        self.counts["model.span_tables"] += len(result)

    def on_candidate_spans(self, result, *args, **kwargs) -> None:
        self.spans_per_utt.append(len(result[0]))

    def on_load_corpus(self, corpus, *args, **kwargs) -> None:
        self.counts["corpus.words"] += sum(p.l for p in corpus.pairs)
        self.counts["corpus.frames"] += sum(p.m for p in corpus.pairs)

    def on_e_step_entry(self, corpus, params, *args, **kwargs) -> None:
        self.per_iteration["live_clusters"].append(len(params.live_clusters()))

    def on_e_step(self, result, corpus, params, candidates_map, mu_map, prev_assignments=None, **kwargs):
        assignments = result[0]
        changed = 0
        for utt_id, new in assignments.items():
            old = prev_assignments[utt_id] if prev_assignments else (None,) * len(new)
            changed += sum(1 for x, y in zip(old, new) if x != y)
        self.per_iteration["assignments_changed"].append(changed)

    def install(self, modules: dict) -> None:
        before = {
            ("model", "candidate_span_costs"): self.on_span_costs,
            ("trainer", "dba_centroid"): self.on_dba,
            ("trainer", "e_step"): self.on_e_step_entry,
        }
        after = {
            ("trainer", "deficient_log_s_table"): self.on_deficient_table,
            ("trainer", "proper_log_s_rows"): self.on_proper_rows,
            ("trainer", "candidate_spans"): self.on_candidate_spans,
            ("trainer", "e_step"): self.on_e_step,
            ("cli", "load_corpus"): self.on_load_corpus,
        }
        for (mod, attr), name in TIMED.items():
            fn = getattr(modules[mod], attr)
            hook = f"{mod}.{attr}"
            hooked = self.timed(hook, name, fn, before.get((mod, attr)), after.get((mod, attr)))
            setattr(modules[mod], attr, hooked)
        no_spans = modules["segmentation"].NoCandidateSpansError

        def on_enumerate_error(exc: Exception) -> None:
            if isinstance(exc, no_spans):
                self.counts["segmentation.fallbacks"] += 1

        for mod, attr in COUNTED:
            on_error = on_enumerate_error if attr == "enumerate_spans" else None
            hooked = self.counted(f"{mod}.{attr}", getattr(modules[mod], attr), on_error)
            setattr(modules[mod], attr, hooked)

    def record(self) -> dict:
        spans = self.spans_per_utt
        counts = dict(self.counts)
        counts["segmentation.spans_total"] = sum(spans)
        counts["segmentation.spans_max"] = max(spans, default=0)
        counts["segmentation.utterances"] = len(spans)
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": counts,
            "per_iteration": self.per_iteration,
        }


def _import_spanalign(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import spanalign
    from spanalign import cli, dtw, model, segmentation, trainer

    origin = Path(spanalign.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"child: imported spanalign from {origin}, not from {src}")
    return {"cli": cli, "trainer": trainer, "model": model, "dtw": dtw, "segmentation": segmentation}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    modules = _import_spanalign(args.src)
    cli = modules["cli"]
    import numpy

    record = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "train_entered_monotonic": None,
    }
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install(modules)

    if args.mode != "plain":
        train = cli.train

        def train_hook(*a, **kw):
            if record["train_entered_monotonic"] is None:
                record["train_entered_monotonic"] = time.monotonic()
            return train(*a, **kw)

        cli.train = train_hook

    if tracer is not None:
        rc = tracer.root(lambda: cli.main(argv))
    else:
        rc = cli.main(argv)
    if tracer is not None:
        record["trace"] = tracer.record()
    args.record.write_text(json.dumps(record, allow_nan=False), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
