"""Command-line front end.

Subcommands: align (train and write alignments), eval (score an
alignment file against gold), grid (lambda sweep on a dev split) and
synth (write a synthetic corpus).

Settings are command-line flags only, and argparse holds their
defaults, read from the config dataclasses.  Output files are written
atomically.  Alignment rows are 0-indexed with exclusive ends: utt_id,
word_index, word, cluster_id, start_frame, end_frame, log_score.
In-memory spans are 1-indexed inclusive: `_alignment_rows` converts
them for the file, `_split_f` into grid's (word, frame) links.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import (
    Corpus,
    CorpusError,
    atomic_write_text,
    check_frame_shift,
    load_corpus,
    read_gold_file,
    read_interval_rows,
    read_manifest,
    save_corpus,
)
from .evalkit import EvalReport, format_report, report_rows, score_links
from .model import save_params
from .segmentation import SegmentationConfig
from .synth import SynthConfig, synth_generate
from .trainer import TrainConfig, TrainError, build_tables, final_alignments, train


@dataclass(frozen=True)
class Option:
    name: str
    kind: type
    default: object
    help: str


# Defaults are read from the config dataclasses, so each lives in one place.
_TRAIN, _SEG, _SYNTH = TrainConfig(), SegmentationConfig(), SynthConfig()

# Settings that align and grid both read.
_RUN_OPTIONS = [
    Option("manifest", str, None, "utterance manifest, one utt_id per line"),
    Option("features", str, None, "directory holding <utt_id>.feat files and sidecars"),
    Option("translations", str, None, "translation sentences, one per manifest line"),
    Option("gold", str, None,
           "gold alignment file: align only checks it against the corpus, grid scores dev and test with it"),
    Option("output", str, None, "output directory"),
    Option("frame_shift_ms", float, Corpus.frame_shift_ms,
           "frame shift of the features in milliseconds"),
    Option("normalize", bool, True, "normalize each utterance to zero mean, unit variance"),
    Option("threshold_ratio", float, _SEG.threshold_ratio,
           "silence threshold as a ratio of the smoothed peak"),
    Option("min_silence_ms", float, _SEG.min_silence_ms, "minimum silence duration in milliseconds"),
    Option("smooth_frames", int, _SEG.smooth_frames,
           "odd width of the centered median filter over energy"),
    Option("grid_stride", int, _SEG.grid_stride, "uniform boundary grid stride in frames (0 disables)"),
    Option("span_min_len", int, _SEG.span_min_len, "minimum candidate span length in frames"),
    Option("span_max_len", int, _SEG.span_max_len, "maximum candidate span length in frames"),
    Option("iterations", int, _TRAIN.iterations, "EM iterations"),
    Option("seed", int, _TRAIN.seed, "random seed for initialization"),
    Option("k", int, _TRAIN.k, "clusters per word type"),
    Option("dba_iterations", int, _TRAIN.dba_iterations, "barycenter averaging iterations per M-step"),
    Option("variant", str, _TRAIN.variant, "span likelihood variant: deficient or proper"),
    Option("threads", int, 1, "has no effect: training runs on one thread (accepted so old command lines run)"),
]

_ALIGN_OPTIONS = [*_RUN_OPTIONS, Option("lambda", float, _TRAIN.lam, "distortion sharpness")]

_GRID_OPTIONS = [
    *_RUN_OPTIONS,
    Option("lambda_grid", str, "0.1,0.3,0.5,1.0,2.0",
           "comma-separated lambda grid, each value a number named once; "
           "a grid that starts with '-' needs the spelling --lambda-grid=-1,0.5"),
    Option("dev_manifest", str, None, "manifest naming the dev split"),
    Option("test_manifest", str, None, "manifest naming the test split"),
]

_SYNTH_OPTIONS = [
    Option("output", str, None, "output directory"),
    Option("seed", int, _SYNTH.seed, "generator seed"),
    Option("vocab_size", int, _SYNTH.vocab_size, "word types in the vocabulary"),
    Option("sentences", int, _SYNTH.sentences, "number of sentences"),
    Option("sentence_len_min", int, _SYNTH.sentence_len_min, "minimum sentence length in words"),
    Option("sentence_len_max", int, _SYNTH.sentence_len_max,
           "maximum sentence length in words, capped at vocab_size (a sentence never repeats a type)"),
    Option("proto_len_min", int, _SYNTH.proto_len_min, "minimum prototype length in frames"),
    Option("proto_len_max", int, _SYNTH.proto_len_max, "maximum prototype length in frames"),
    Option("dim", int, _SYNTH.dim, "feature dimensions"),
    Option("noise_std", float, _SYNTH.noise_std, "white noise standard deviation"),
    Option("reorder_prob", float, _SYNTH.reorder_prob, "probability of swapping adjacent words"),
    Option("silence_prob", float, _SYNTH.silence_prob,
           "probability of a silence at each word junction"),
    Option("silence_len_min", int, _SYNTH.silence_len_min, "minimum silence length in frames"),
    Option("silence_len_max", int, _SYNTH.silence_len_max, "maximum silence length in frames"),
    Option("bounds", bool, _SYNTH.bounds, "write <utt_id>.bounds sidecars with the true word edges"),
]


def _add_options(parser: argparse.ArgumentParser, options: list[Option]) -> None:
    for opt in options:
        flag = "--" + opt.name.replace("_", "-")
        help_text = opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"
        parse = {"action": argparse.BooleanOptionalAction} if opt.kind is bool else {"type": opt.kind}
        parser.add_argument(flag, dest=opt.name, default=opt.default, help=help_text, **parse)


def _require(values: dict, names: list[str], command: str) -> None:
    missing = [n for n in names if not values.get(n)]
    if missing:
        raise ValueError(f"{command}: missing required settings: {', '.join(missing)}")


def _config(cls, values: dict, **renamed):
    """A config dataclass filled from the settings of the same name; `renamed` gives the rest."""
    same = {f.name: values[f.name] for f in fields(cls) if f.name not in renamed}
    return cls(**same, **renamed)


def _alignment_rows(corpus: Corpus, alignments: dict) -> str:
    lines = []
    for pair in corpus:
        for w_idx, (f, a, b, score) in enumerate(alignments[pair.utt_id]):
            lines.append(
                f"{pair.utt_id}\t{w_idx}\t{pair.target_words[w_idx]}\t{f}\t{a - 1}\t{b}\t{score!r}"
            )
    return "\n".join(lines) + "\n"


def _load_tables(values: dict, seg_config: SegmentationConfig):
    """Load (and normalize) the corpus, make the output directory, build the candidate tables."""
    corpus = load_corpus(
        values["manifest"],
        values["features"],
        values["translations"],
        values["gold"],
        frame_shift_ms=values["frame_shift_ms"],
        normalize=values["normalize"],
    )
    out_dir = Path(values["output"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return corpus, out_dir, build_tables(corpus, seg_config)


def cmd_align(args: argparse.Namespace) -> int:
    """Train, then write every output of the run.

    Removes every checkpoint_iter<digits>.json this run will not write and
    no other file, then writes checkpoint_iterNN.json per iteration_log row,
    checkpoint.json (the last row's), alignments.tsv and iteration_log.tsv.
    """
    values = vars(args)
    _require(values, ["manifest", "features", "translations", "output"], "align")
    config = _config(TrainConfig, values, lam=values["lambda"])
    seg_config = _config(SegmentationConfig, values)
    check_frame_shift(values["frame_shift_ms"])
    corpus, out_dir, tables = _load_tables(values, seg_config)
    state = train(corpus, config, tables)
    alignments = final_alignments(corpus, state, tables)
    # A longer earlier run's checkpoints would sit beside this run's as if they were its own.
    written = {f"checkpoint_iter{stat.iteration:02d}.json": stat.params for stat in state.iteration_log}
    for path in out_dir.glob("checkpoint_iter*.json"):
        if path.name not in written and re.fullmatch(r"checkpoint_iter[0-9]+\.json", path.name):
            path.unlink()
    for name, params in written.items():
        save_params(params, out_dir / name, corpus.frame_shift_ms)
    save_params(state.params, out_dir / "checkpoint.json", corpus.frame_shift_ms)
    atomic_write_text(out_dir / "alignments.tsv", _alignment_rows(corpus, alignments))

    log_lines = [
        f"# variant = {state.params.variant}",
        f"# seed = {values['seed']}",
        f"# lambda = {values['lambda']}",
        "iteration\ttotal_log_score\tseconds",
    ]
    for stat in state.iteration_log:
        log_lines.append(f"{stat.iteration}\t{stat.total_log_score!r}\t{stat.seconds:.3f}")
    atomic_write_text(out_dir / "iteration_log.tsv", "\n".join(log_lines) + "\n")
    print(f"wrote {out_dir / 'alignments.tsv'}")
    return 0


def _read_alignment_file(path: str):
    links = set()
    names = {}
    for lineno, parts, w_idx, start, end in read_interval_rows(path, 7, (1, 4, 5)):
        if (parts[0], w_idx) in names:
            raise CorpusError(f"{path}:{lineno}: second row for word {w_idx} of {parts[0]!r}")
        names[(parts[0], w_idx)] = parts[2]
        links.update((parts[0], w_idx, j) for j in range(start, end))
    return links, names


def _file_report(pred_path: str, gold_path: str) -> EvalReport:
    """Score an alignment file against a gold file.

    Utterances are reported in sorted id order; gold links of a word the
    predictions never name count under the type "<unnamed>".
    """
    pred_links, names = _read_alignment_file(pred_path)
    gold = read_gold_file(gold_path)
    gold_links = {(u, w, j) for u, links in gold.items() for w, j in links}

    # (predicted, gold) link sets per utterance and per word type
    by_utt = defaultdict(lambda: (set(), set()))
    by_type = defaultdict(lambda: (set(), set()))
    for side, links in enumerate((pred_links, gold_links)):
        for link in links:
            by_utt[link[0]][side].add(link)
            by_type[names.get(link[:2], "<unnamed>")][side].add(link)

    precision, recall, f_score = score_links(pred_links, gold_links)
    per_utt = {u: score_links(*by_utt[u]) for u in sorted(by_utt)}
    per_type = {word: score_links(*by_type[word]) for word in sorted(by_type)}
    return EvalReport(precision, recall, f_score, per_utt, per_type)


def cmd_eval(args: argparse.Namespace) -> int:
    report = _file_report(args.predicted, args.gold)
    print(f"precision\t{report.precision:.6f}")
    print(f"recall\t{report.recall:.6f}")
    print(f"f_score\t{report.f_score:.6f}")
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_dir / "report.txt", format_report(report))
        atomic_write_text(out_dir / "report.tsv", report_rows(report))
    return 0


def _split_f(alignments: dict, gold: dict, ids: list[str]) -> float:
    """F over the pooled links of utterances `ids`; span (a, b) links its word to frames a-1 .. b-1."""
    pred = {(u, w, j - 1) for u in ids for w, (_, a, b, _) in enumerate(alignments[u]) for j in range(a, b + 1)}
    gold_links = {(u, w, j) for u in ids for w, j in gold.get(u, ())}  # no gold rows: no gold links
    return score_links(pred, gold_links).f_score


def cmd_grid(args: argparse.Namespace) -> int:
    values = vars(args)
    _require(
        values,
        ["manifest", "features", "translations", "gold", "output", "dev_manifest", "test_manifest"],
        "grid",
    )
    text = values["lambda_grid"]
    try:
        grid = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"lambda_grid must be comma-separated numbers, got {text!r}") from None
    for n, lam in enumerate(grid):
        if lam in grid[:n]:
            raise ValueError(f"lambda_grid repeats {lam}")
    configs = [_config(TrainConfig, values, lam=lam) for lam in grid]  # each checks its lam
    seg_config = _config(SegmentationConfig, values)
    check_frame_shift(values["frame_shift_ms"])
    dev_ids = read_manifest(values["dev_manifest"])
    test_ids = read_manifest(values["test_manifest"])
    in_dev = set(dev_ids)
    for lineno, utt_id in enumerate(test_ids, start=1):
        if utt_id in in_dev:  # lambda would be selected on test utterances
            raise CorpusError(f"{values['test_manifest']}:{lineno}: {utt_id!r} is in the dev split too")
    known = set(read_manifest(values["manifest"]))
    for name, ids in (("dev_manifest", dev_ids), ("test_manifest", test_ids)):
        for lineno, utt_id in enumerate(ids, start=1):
            if utt_id not in known:
                raise CorpusError(f"{values[name]}:{lineno}: split utterance {utt_id!r} not in the corpus")
    corpus, out_dir, tables = _load_tables(values, seg_config)

    rows = ["lambda\tdev_f"]
    best = None
    for config in configs:
        lam = config.lam
        alignments = final_alignments(corpus, train(corpus, config, tables), tables)
        dev_f = _split_f(alignments, corpus.gold, dev_ids)
        rows.append(f"{lam!r}\t{dev_f!r}")
        print(f"lambda {lam}: dev f_score {dev_f:.6f}")
        if best is None or dev_f > best[1]:
            best = (lam, dev_f, alignments)

    lam, dev_f, alignments = best
    test_f = _split_f(alignments, corpus.gold, test_ids)
    rows.append(f"selected\t{lam!r}")
    rows.append(f"test_f\t{test_f!r}")
    atomic_write_text(out_dir / "grid_report.tsv", "\n".join(rows) + "\n")
    print(f"selected lambda {lam}: test f_score {test_f:.6f}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    values = vars(args)
    _require(values, ["output"], "synth")
    corpus, true_params = synth_generate(_config(SynthConfig, values))
    out_dir = Path(values["output"])
    save_corpus(corpus, out_dir)
    save_params(true_params, out_dir / "true_params.json", corpus.frame_shift_ms)
    print(f"wrote {len(corpus)} utterances to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanalign",
        description="Unsupervised alignment of speech feature spans to translation words.",
    )
    # Flags are spelled out in full: as a prefix, grid's `--lambda` would read as `--lambda-grid`.
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", allow_abbrev=False, help="train on a corpus and write alignments")
    _add_options(p_align, _ALIGN_OPTIONS)
    p_align.set_defaults(func=cmd_align)

    p_eval = sub.add_parser("eval", allow_abbrev=False, help="score an alignment file against gold links")
    p_eval.add_argument("predicted", help="alignment TSV written by the align command")
    p_eval.add_argument("gold", help="gold alignment file")
    p_eval.add_argument("--output", default=None, help="directory for report files")
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", allow_abbrev=False, help="sweep lambda, select on dev, report test")
    _add_options(p_grid, _GRID_OPTIONS)
    p_grid.set_defaults(func=cmd_grid)

    p_synth = sub.add_parser("synth", allow_abbrev=False, help="generate a synthetic corpus with gold links")
    _add_options(p_synth, _SYNTH_OPTIONS)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, TrainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
