import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from spanalign import cli
from spanalign.cli import (
    _alignment_rows,
    _config,
    _file_report,
    _read_alignment_file,
    _split_f,
    build_parser,
    main,
)
from spanalign.corpus import Corpus, SentencePair, write_feature_file
from spanalign.segmentation import SegmentationConfig
from spanalign.synth import SynthConfig
from spanalign import trainer
from spanalign.trainer import TrainConfig

from corpus_flags import corpus_flags

SYNTH_SMALL = [
    "--vocab-size", "5",
    "--sentences", "5",
    "--sentence-len-min", "2",
    "--sentence-len-max", "4",
]


def _synth(tmp_path, *extra):
    out = tmp_path / "corpus"
    code = main(["synth", "--output", str(out), *SYNTH_SMALL, *extra])
    assert code == 0
    return out


def _align(tmp_path, corpus_dir, *extra):
    out = tmp_path / "run"
    code = main(
        [
            "align",
            *corpus_flags(corpus_dir, gold=True),
            "--output", str(out),
            "--iterations", "2",
            "--threads", "1",
            *extra,
        ]
    )
    assert code == 0
    return out


def test_bare_commands_use_config_defaults():
    values = vars(build_parser().parse_args(["align"]))
    assert _config(TrainConfig, values, lam=values["lambda"]) == TrainConfig()
    assert _config(SegmentationConfig, values) == SegmentationConfig()
    values = vars(build_parser().parse_args(["synth"]))
    assert _config(SynthConfig, values) == SynthConfig()
    assert {f.name for f in fields(SynthConfig)} == set(values) - {"output", "command", "func"}


@pytest.mark.parametrize("command", ["align", "grid", "synth"])
def test_help_shows_only_real_defaults(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert "(default: None)" not in text
    if command != "synth":
        assert "EM iterations (default: 3)" in text


@pytest.mark.parametrize("command", ["align", "grid", "synth"])
def test_config_file_option_is_gone(tmp_path, capsys, command):
    path = tmp_path / "run.conf"
    path.write_text("seed = 5\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_synth_writes_corpus_layout(tmp_path):
    out = _synth(tmp_path)
    assert (out / "manifest.txt").exists()
    assert (out / "translations.txt").exists()
    assert (out / "gold.tsv").exists()
    assert (out / "true_params.json").exists()
    ids = (out / "manifest.txt").read_text().split()
    assert len(ids) == 5
    for utt_id in ids:
        assert (out / f"{utt_id}.feat").exists()
        assert (out / f"{utt_id}.energy").exists()
        assert (out / f"{utt_id}.bounds").exists()


def test_synth_no_bounds_flag(tmp_path):
    out = _synth(tmp_path, "--no-bounds")
    assert not list(out.glob("*.bounds"))


def test_synth_no_bounds_removes_stale_sidecars(tmp_path):
    # A .bounds left by the first run would be read back with the new features.
    assert list(_synth(tmp_path).glob("*.bounds"))
    out = _synth(tmp_path, "--no-bounds", "--seed", "3")
    assert not list(out.glob("*.bounds"))
    assert (_align(tmp_path, out) / "alignments.tsv").exists()


def test_align_rerun_removes_stale_checkpoints(tmp_path):
    # A longer earlier run's checkpoints would read as this run's; other files stay.
    corpus_dir = _synth(tmp_path)
    run_dir = _align(tmp_path, corpus_dir, "--iterations", "4")
    assert len(list(run_dir.glob("checkpoint_iter*.json"))) == 5
    (run_dir / "notes.txt").write_text("kept\n")
    (run_dir / "checkpoint_iter_best.json").write_text("{}\n")
    _align(tmp_path, corpus_dir, "--iterations", "1")
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "alignments.tsv", "checkpoint.json", "checkpoint_iter00.json", "checkpoint_iter01.json",
        "checkpoint_iter_best.json", "iteration_log.tsv", "notes.txt",
    ]
    assert (run_dir / "notes.txt").read_text() == "kept\n"
    assert (run_dir / "checkpoint.json").read_bytes() == (run_dir / "checkpoint_iter01.json").read_bytes()


def test_align_writes_checkpoints(tmp_path, monkeypatch):
    # One checkpoint per iteration_log row, written by align from the parameters train returns.
    states = []

    def recorded_train(*args, **kwargs):
        states.append(trainer.train(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(cli, "train", recorded_train)
    run_dir = _align(tmp_path, _synth(tmp_path))
    names = sorted(p.name for p in run_dir.glob("checkpoint*.json"))
    assert names == ["checkpoint.json", "checkpoint_iter00.json", "checkpoint_iter01.json", "checkpoint_iter02.json"]
    (state,) = states
    for stat in state.iteration_log:
        saved = json.loads((run_dir / f"checkpoint_iter{stat.iteration:02d}.json").read_text())
        assert saved["u"] == stat.params.u.tolist()
    assert (run_dir / "checkpoint.json").read_bytes() == (run_dir / "checkpoint_iter02.json").read_bytes()


def test_align_zero_iterations_removes_stale_checkpoint(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "checkpoint_iter01.json").write_text("{}\n")
    _align(tmp_path, _synth(tmp_path), "--iterations", "0")
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "alignments.tsv", "checkpoint.json", "checkpoint_iter00.json", "iteration_log.tsv",
    ]
    assert (run_dir / "checkpoint.json").read_bytes() == (run_dir / "checkpoint_iter00.json").read_bytes()


def test_align_then_eval_end_to_end(tmp_path, capsys):
    corpus_dir = _synth(tmp_path)
    run_dir = _align(tmp_path, corpus_dir)
    assert (run_dir / "alignments.tsv").exists()
    assert (run_dir / "checkpoint.json").exists()
    assert (run_dir / "iteration_log.tsv").exists()
    # one checkpoint per iteration plus the initialization
    assert len(list(run_dir.glob("checkpoint_iter*.json"))) == 3

    log = (run_dir / "iteration_log.tsv").read_text().splitlines()
    assert log[3] == "iteration\ttotal_log_score\tseconds"
    assert len(log) == 7

    capsys.readouterr()
    report_dir = tmp_path / "report"
    code = main(
        [
            "eval",
            str(run_dir / "alignments.tsv"),
            str(corpus_dir / "gold.tsv"),
            "--output", str(report_dir),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("precision\t")
    assert printed[2].startswith("f_score\t")
    assert float(printed[2].split("\t")[1]) > 0.0
    assert (report_dir / "report.txt").exists()
    assert (report_dir / "report.tsv").exists()


def test_alignment_rows_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pair = SentencePair(
        "u1",
        rng.standard_normal((3, 2)),
        ("aa", "b"),
    )
    corpus = Corpus((pair,))
    words = ((4, 1, 2, -1.5), (7, 3, 3, 0.0))
    text = _alignment_rows(corpus, {"u1": words})
    # spans are stored 0-indexed end-exclusive
    assert text.splitlines()[0] == "u1\t0\taa\t4\t0\t2\t-1.5"
    assert text.splitlines()[1] == "u1\t1\tb\t7\t2\t3\t0.0"

    path = tmp_path / "alignments.tsv"
    path.write_text(text)
    links, names = _read_alignment_file(str(path))
    assert links == {("u1", 0, 0), ("u1", 0, 1), ("u1", 1, 2)}
    assert names == {("u1", 0): "aa", ("u1", 1): "b"}


@pytest.mark.parametrize(
    "row, message",
    [
        ("u1\t0\taa\t4\t0\tx\t-1.5", "non-integer field"),
        ("u1\t-1\taa\t4\t0\t2\t-1.5", "negative word index"),
        ("u1\t0\taa\t4\t0\t2", "expected 7 tab-separated fields"),
        ("u1\t0\taa\t4\t2\t2\t-1.5", "invalid interval [2, 2)"),
        ("u1\t1\tb\t-\t0\t1\t0.0", "second row for word 1 of 'u1'"),
    ],
    ids=["non_integer", "negative_word", "field_count", "empty_interval", "duplicate_word"],
)
def test_eval_rejects_malformed_alignment_row(tmp_path, capsys, row, message):
    pred = tmp_path / "alignments.tsv"
    pred.write_text(f"u1\t1\tb\t-\t2\t3\t0.0\n{row}\n")
    gold = tmp_path / "gold.tsv"
    gold.write_text("u1\t0\t0\t2\n")
    assert main(["eval", str(pred), str(gold)]) == 1
    captured = capsys.readouterr()
    assert f"{pred}:2: {message}" in captured.err
    assert captured.out == ""


def test_subcommands_are_align_eval_grid_synth(capsys):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"align", "eval", "grid", "synth"}
    with pytest.raises(SystemExit) as exc:
        main(["dtw", "a.feat", "b.feat"])
    assert exc.value.code == 2
    assert "invalid choice: 'dtw'" in capsys.readouterr().err


def test_missing_input_exits_nonzero(tmp_path, capsys):
    code = main(["eval", str(tmp_path / "nope.tsv"), str(tmp_path / "gold.tsv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def _assert_rejected_before_reading(tmp_path, capsys, command, setting, message):
    # Every input path is missing, so the run fails on the setting only if it is
    # checked before any file is read, and it leaves no output directory behind.
    paths = ["--manifest", "m.txt", "--features", "f", "--translations", "t.txt", "--gold", "g.tsv"]
    if command == "grid":
        paths += ["--dev-manifest", "dev.txt", "--test-manifest", "test.txt"]
    code = main([command, *paths, "--output", str(tmp_path / "run"), *setting])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("align", ["--span-min-len", "5", "--span-max-len", "3"], "need 1 <= span_min_len <= span_max_len"),
        ("align", ["--frame-shift-ms", "0"], "frame_shift_ms must be positive and finite, got 0.0"),
        ("grid", ["--frame-shift-ms", "nan"], "frame_shift_ms must be positive and finite, got nan"),
        ("align", ["--min-silence-ms", "nan"], "min_silence_ms must be positive and finite, got nan"),
        ("grid", ["--min-silence-ms", "inf"], "min_silence_ms must be positive and finite, got inf"),
        ("align", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("grid", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("align", ["--smooth-frames", "4"], "smooth_frames must be odd and >= 1, got 4"),
        ("grid", ["--smooth-frames", "0"], "smooth_frames must be odd and >= 1, got 0"),
        ("align", ["--threshold-ratio", "1"], "threshold_ratio must lie in (0, 1)"),
        ("grid", ["--grid-stride", "-1"], "grid_stride must be >= 0 (0 disables the grid)"),
        # align's lambda and each of grid's lambda_grid values follow one rule
        ("align", ["--lambda", "-1"], "lam must be finite and >= 0, got -1.0"),
        ("align", ["--lambda", "nan"], "lam must be finite and >= 0, got nan"),
        ("align", ["--lambda", "inf"], "lam must be finite and >= 0, got inf"),
        ("grid", ["--lambda-grid", "-1"], "lam must be finite and >= 0, got -1.0"),
        ("grid", ["--lambda-grid", "0.5,nan"], "lam must be finite and >= 0, got nan"),
        ("grid", ["--lambda-grid", "inf"], "lam must be finite and >= 0, got inf"),
        # as a separate argument, "-1,0.5" would read as a flag
        ("grid", ["--lambda-grid=-1,0.5"], "lam must be finite and >= 0, got -1.0"),
        ("align", ["--variant", "soft"], "variant must be one of ('deficient', 'proper'), got 'soft'"),
    ],
    ids=["align_span_len", "align_frame_shift_zero", "grid_frame_shift_nan",
         "align_min_silence_nan", "grid_min_silence_inf", "align_seed", "grid_seed",
         "align_smooth_frames_even", "grid_smooth_frames_zero", "align_threshold_ratio",
         "grid_grid_stride", "align_lambda_negative", "align_lambda_nan", "align_lambda_inf",
         "grid_lambda_negative", "grid_lambda_nan", "grid_lambda_inf", "grid_lambda_negative_first",
         "align_variant"],
)
def test_bad_settings_rejected_before_reading_files(tmp_path, capsys, command, setting, message):
    _assert_rejected_before_reading(tmp_path, capsys, command, setting, message)


@pytest.mark.parametrize(
    "command, name, value",
    [("synth", "frame_shift_ms", "25"), ("align", "lambda_grid", "abc"), ("align", "dev_manifest", "nope"),
     ("align", "test_manifest", "nope"), ("grid", "lambda", "0.5"),
     # No candidate span is null, so a null-span mass would only shift every score.
     ("align", "p0", "0.3"), ("grid", "p0", "0.3")],
)
def test_command_rejects_settings_it_does_not_read(capsys, command, name, value):
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_non_default_frame_shift_is_stamped_on_every_prototype(tmp_path):
    # align sets a run's frame shift; synth has none and records the default.
    corpus_dir = _synth(tmp_path)
    run = _align(tmp_path, corpus_dir, "--frame-shift-ms", "25")
    for path, want in [(corpus_dir / "true_params.json", 10.0), (run / "checkpoint.json", 25.0),
                       *((path, 25.0) for path in run.glob("checkpoint_iter*.json"))]:
        shifts = {p["frame_shift_ms"] for p in json.loads(path.read_text())["prototypes"] if p is not None}
        assert shifts == {want}, path


def test_frame_shift_flag_reaches_silence_detection(tmp_path, monkeypatch):
    # synth's silences last 9-14 frames; 150 ms is 7.5 frames at 20 ms per frame and 15 at 10 ms.
    corpus_dir = _synth(tmp_path)
    silences, candidate_spans = [], trainer.candidate_spans

    def recorded(pair, config):
        spans, found = candidate_spans(pair, config)
        silences.append(found)
        return spans, found

    monkeypatch.setattr(trainer, "candidate_spans", recorded)
    tables = {}
    for shift in ("10", "20"):
        argv = ["align", *corpus_flags(corpus_dir), "--output", str(tmp_path / "run"),
                "--min-silence-ms", "150", "--frame-shift-ms", shift]
        values = vars(build_parser().parse_args(argv))
        _, _, tables[shift] = cli._load_tables(values, _config(SegmentationConfig, values))
    at_10, at_20 = silences[:5], silences[5:]
    assert at_10 == [()] * 5
    assert all(at_20) and {t - s for runs in at_20 for s, t in runs} <= set(range(9, 15))
    assert tables["10"].candidates != tables["20"].candidates


@pytest.mark.parametrize(
    "command, flags",
    [("align", ["--frame-shift-ms", "1e-310"]),
     ("align", ["--min-silence-ms", "1e308", "--frame-shift-ms", "0.001"]),
     ("align", ["--frame-shift-ms", "1e308"]),
     ("align", ["--min-silence-ms", "5e-324"]),
     ("align", ["--threshold-ratio", "5e-324"]),
     ("align", ["--span-min-len", "1000000000000", "--span-max-len", "1000000000000"]),
     ("align", ["--grid-stride", "0"]),
     ("align", ["--iterations", "0"]),
     ("grid", ["--frame-shift-ms", "1e-310"])],
    ids=["tiny_shift", "silence_ratio_overflows", "huge_shift", "tiny_silence", "tiny_threshold",
         "huge_spans", "no_grid", "no_iterations", "grid_tiny_shift"],
)
def test_extreme_valid_settings_run(tmp_path, capsys, command, flags):
    # Any valid value runs; --smooth-frames and --k are left out, as their memory grows with the value.
    if command == "align":
        _align(tmp_path, _synth(tmp_path), *flags)
        err = capsys.readouterr().err
    else:
        code, err = _grid_on_splits(tmp_path, capsys, "{0}\n{1}\n", "{2}\n{3}\n{4}\n", "--iterations", "1", *flags)
        assert code == 0
    assert "Traceback" not in err


def test_align_reads_translation_with_unicode_line_separator(tmp_path):
    corpus_dir = _synth(tmp_path, "--sentences", "3")
    translations = corpus_dir / "translations.txt"
    lines = translations.read_text(encoding="utf-8").split("\n")
    lines[1] = lines[1].replace(" ", "\u0085", 1)
    translations.write_text("\n".join(lines), encoding="utf-8")
    _align(tmp_path, corpus_dir)


def test_byte_order_marks_are_ignored(tmp_path, capsys):
    # A leading UTF-8 BOM on any text input changes no output of align or eval.
    corpus_dir = _synth(tmp_path)
    bom_dir = tmp_path / "bom" / "corpus"
    bom_dir.mkdir(parents=True)
    for path in corpus_dir.iterdir():
        if path.suffix in (".txt", ".feat", ".energy", ".bounds", ".tsv"):
            (bom_dir / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    runs = [_align(tmp_path, corpus_dir), _align(tmp_path / "bom", bom_dir)]
    for name in ["alignments.tsv", "checkpoint.json", "checkpoint_iter00.json", "checkpoint_iter02.json"]:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    logs = [[row.split("\t")[:2] for row in (run / "iteration_log.tsv").read_text().splitlines()] for run in runs]
    assert logs[0] == logs[1]  # seconds aside

    bom_alignments = tmp_path / "bom" / "alignments.tsv"
    bom_alignments.write_bytes(b"\xef\xbb\xbf" + (runs[0] / "alignments.tsv").read_bytes())
    capsys.readouterr()
    reports = []
    for alignments, gold, out in [
        (runs[0] / "alignments.tsv", corpus_dir / "gold.tsv", tmp_path / "report"),
        (bom_alignments, bom_dir / "gold.tsv", tmp_path / "bom" / "report"),
    ]:
        assert main(["eval", str(alignments), str(gold), "--output", str(out)]) == 0
        reports.append([capsys.readouterr().out] + [(out / n).read_bytes() for n in ("report.txt", "report.tsv")])
    assert reports[0] == reports[1]


def test_eval_files_gold_of_unnamed_words_under_one_type(tmp_path, capsys):
    # The alignments name only word 0 of u1; word 1's gold frames are misses filed under "<unnamed>".
    pred, gold, out = tmp_path / "alignments.tsv", tmp_path / "gold.tsv", tmp_path / "report"
    pred.write_text("u1\t0\tfoo\t0\t0\t3\t-1.0\n")
    gold.write_text("u1\t0\t0\t3\nu1\t1\t3\t5\n")
    assert main(["eval", str(pred), str(gold), "--output", str(out)]) == 0
    assert "recall\t0.600000" in capsys.readouterr().out
    rows = (out / "report.tsv").read_text().splitlines()
    assert rows[1].split("\t")[:4] == ["corpus", "-", "1.0", "0.6"]
    assert rows[3:] == ["word_type\t<unnamed>\t0.0\t0.0\t0.0", "word_type\tfoo\t1.0\t1.0\t1.0"]


def test_align_requires_output(tmp_path, capsys):
    code = main(["align", "--manifest", str(tmp_path / "m.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing required settings" in err


def test_grid_selects_lambda_on_dev(tmp_path, capsys):
    corpus_dir = _synth(tmp_path)
    ids = (corpus_dir / "manifest.txt").read_text().split()
    dev = tmp_path / "dev.txt"
    test = tmp_path / "test.txt"
    dev.write_text("\n".join(ids[:2]) + "\n")
    test.write_text("\n".join(ids[2:]) + "\n")
    out = tmp_path / "grid"
    code = main(
        [
            "grid",
            *corpus_flags(corpus_dir, gold=True),
            "--output", str(out),
            "--dev-manifest", str(dev),
            "--test-manifest", str(test),
            "--lambda-grid", "0.3,0.5",
            "--iterations", "1",
            "--threads", "1",
        ]
    )
    assert code == 0
    rows = (out / "grid_report.tsv").read_text().splitlines()
    assert rows[0] == "lambda\tdev_f"
    assert len(rows) == 5
    assert rows[3].startswith("selected\t")
    assert rows[4].startswith("test_f\t")
    selected = float(rows[3].split("\t")[1])
    assert selected in (0.3, 0.5)


@pytest.mark.parametrize("grid", ["0.3,0.5", "0.5,0.3"])
def test_grid_tie_selects_first_lambda(tmp_path, capsys, monkeypatch, grid):
    # A later lambda replaces the best only with a strictly higher dev F.
    monkeypatch.setattr(cli, "_split_f", lambda *args: 0.5)
    code, _ = _grid_on_splits(
        tmp_path, capsys, "{0}\n{1}\n", "{2}\n{3}\n{4}\n", "--lambda-grid", grid, "--iterations", "1"
    )
    assert code == 0
    rows = (tmp_path / "grid" / "grid_report.tsv").read_text().splitlines()
    first, second = grid.split(",")
    assert rows == ["lambda\tdev_f", f"{first}\t0.5", f"{second}\t0.5", f"selected\t{first}", "test_f\t0.5"]


def _words(*spans):
    """An utterance's alignment: cluster 0 and log score 0.0 on each 1-indexed inclusive span."""
    return tuple((0, a, b, 0.0) for a, b in spans)


def test_split_f_expands_inclusive_spans():
    # Span (1, 3) covers frames 0-2 and (5, 5) frame 4; any other reading misses gold links.
    gold = {"u": frozenset({(0, 0), (0, 1), (0, 2), (1, 4)})}
    assert _split_f({"u": _words((1, 3), (5, 5))}, gold, ["u"]) == 1.0


def test_split_f_pools_links_across_utterances():
    # 3 predicted and 4 gold links, 2 hits: P = 2/3, R = 1/2.  The mean of the
    # utterances' F (2/3 and 1/2) is 7/12, and links without their utterance id would give 4/5.
    gold = {"u1": frozenset({(0, 0)}), "u2": frozenset({(0, 0), (0, 1), (0, 2)})}
    alignments = {"u1": _words((1, 2)), "u2": _words((1, 1)), "u3": _words((1, 4))}
    assert _split_f(alignments, gold, ["u1", "u2"]) == pytest.approx(4 / 7)


def test_split_f_utterance_without_gold_counts_as_empty_gold():
    # u2 has no gold rows, so its 2 predicted links are all misses: P = 1/3, R = 1.
    gold = {"u1": frozenset({(0, 0)})}
    assert _split_f({"u1": _words((1, 1)), "u2": _words((1, 2))}, gold, ["u1", "u2"]) == pytest.approx(0.5)


def test_grid_test_f_equals_eval_f(tmp_path):
    # grid scores its test split on in-memory alignments; eval reads the
    # same alignments from align's file.  Both must give the same F bits.
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--output", str(corpus_dir), "--sentences", "20", "--no-bounds",
                 "--silence-prob", "0.3"]) == 0
    ids = (corpus_dir / "manifest.txt").read_text().split()
    (tmp_path / "dev.txt").write_text("\n".join(ids[:8]) + "\n")
    (tmp_path / "test.txt").write_text("\n".join(ids[8:]) + "\n")
    splits = ["--dev-manifest", str(tmp_path / "dev.txt"), "--test-manifest", str(tmp_path / "test.txt")]
    assert main(["grid", *corpus_flags(corpus_dir, gold=True), "--output", str(tmp_path / "grid"),
                 *splits, "--lambda-grid", "0.5"]) == 0
    assert main(["align", *corpus_flags(corpus_dir, gold=True), "--output", str(tmp_path / "run"),
                 "--lambda", "0.5"]) == 0
    rows = (tmp_path / "grid" / "grid_report.tsv").read_text().splitlines()
    assert rows[-1].startswith("test_f\t")

    test_ids = set(ids[8:])
    for name, path in [("pred.tsv", tmp_path / "run" / "alignments.tsv"), ("gold.tsv", corpus_dir / "gold.tsv")]:
        kept = [row for row in path.read_text().splitlines() if row.split("\t")[0] in test_ids]
        (tmp_path / name).write_text("\n".join(kept) + "\n")
    report = _file_report(str(tmp_path / "pred.tsv"), str(tmp_path / "gold.tsv"))
    assert report.f_score == float(rows[-1].split("\t")[1])


def test_grid_does_lambda_independent_work_once(tmp_path, monkeypatch):
    # Candidate spans do not depend on lambda: grid builds them once per
    # utterance for every lambda, and each lambda's distortion rows once per word.
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--output", str(corpus_dir), "--seed", "0", "--sentences", "8"]) == 0
    ids = (corpus_dir / "manifest.txt").read_text().split()
    (tmp_path / "dev.txt").write_text("\n".join(ids[:4]) + "\n")
    (tmp_path / "test.txt").write_text("\n".join(ids[4:]) + "\n")
    spans_for, delta_lams = [], []
    candidate_spans, log_delta_a = trainer.candidate_spans, trainer.log_delta_a

    def counted_spans(pair, *args, **kwargs):
        spans_for.append(pair.utt_id)
        return candidate_spans(pair, *args, **kwargs)

    def counted_delta(i, l, m, mu, lam):
        delta_lams.append(lam)
        return log_delta_a(i, l, m, mu, lam)

    monkeypatch.setattr(trainer, "candidate_spans", counted_spans)
    monkeypatch.setattr(trainer, "log_delta_a", counted_delta)
    code = main(
        [
            "grid",
            *corpus_flags(corpus_dir, gold=True),
            "--output", str(tmp_path / "grid"),
            "--dev-manifest", str(tmp_path / "dev.txt"),
            "--test-manifest", str(tmp_path / "test.txt"),
            "--lambda-grid", "0.3,1.0,2.0",
            "--iterations", "1",
        ]
    )
    assert code == 0
    assert spans_for == ids
    words = len((corpus_dir / "translations.txt").read_text().split())
    assert delta_lams == [0.3] * words + [1.0] * words + [2.0] * words


def _grid_on_splits(tmp_path, capsys, dev_text, test_text, *extra):
    """Run grid on a small corpus with the given split manifests and flags; return (exit code, stderr)."""
    corpus_dir = _synth(tmp_path)
    ids = (corpus_dir / "manifest.txt").read_text().split()
    (tmp_path / "dev.txt").write_text(dev_text.format(*ids))
    (tmp_path / "test.txt").write_text(test_text.format(*ids))
    code = main(
        [
            "grid",
            *corpus_flags(corpus_dir, gold=True),
            "--output", str(tmp_path / "grid"),
            "--dev-manifest", str(tmp_path / "dev.txt"),
            "--test-manifest", str(tmp_path / "test.txt"),
            *extra,
        ]
    )
    return code, capsys.readouterr().err


def test_grid_accepts_lambda_zero(tmp_path, capsys):
    # grid's lambda values follow align's rule: lambda = 0, a flat distortion, is allowed.
    code, _ = _grid_on_splits(
        tmp_path, capsys, "{0}\n{1}\n", "{2}\n{3}\n{4}\n", "--lambda-grid", "0.5,0", "--iterations", "1"
    )
    assert code == 0
    rows = (tmp_path / "grid" / "grid_report.tsv").read_text().splitlines()
    assert [row.split("\t")[0] for row in rows[1:3]] == ["0.5", "0.0"]


def test_grid_rejects_blank_line_inside_split_manifest(tmp_path, capsys):
    # Trailing blank lines, as in the test split here, are fine.
    code, err = _grid_on_splits(tmp_path, capsys, "{0}\n\n{1}\n", "{2}\n{3}\n{4}\n\n")
    assert code == 1
    assert f"{tmp_path / 'dev.txt'}:2: blank utterance id" in err
    assert not (tmp_path / "grid").exists()  # rejected before the corpus was loaded or trained on


def test_grid_rejects_repeated_id_in_split_manifest(tmp_path, capsys):
    code, err = _grid_on_splits(tmp_path, capsys, "{0}\n{1}\n", "{2}\n{3}\n{2}\n")
    assert code == 1
    assert f"{tmp_path / 'test.txt'}:3: utterance id 'synth0002' repeats line 1" in err
    assert not (tmp_path / "grid").exists()


def test_grid_rejects_id_in_both_splits(tmp_path, capsys):
    # Lambda would otherwise be selected on utterances that the test F also scores.
    code, err = _grid_on_splits(tmp_path, capsys, "{0}\n{1}\n", "{2}\n{1}\n")
    assert code == 1
    assert f"{tmp_path / 'test.txt'}:2: 'synth0001' is in the dev split too" in err
    assert not (tmp_path / "grid").exists()


def test_grid_rejects_split_id_missing_from_corpus(tmp_path, capsys):
    code, err = _grid_on_splits(tmp_path, capsys, "{0}\n{1}\n", "{2}\nnope\n")
    assert code == 1
    assert "split utterance 'nope' not in the corpus" in err
    assert f"{tmp_path / 'test.txt'}:2: " in err
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize(
    "grid, message",
    [(",", "lambda_grid must be comma-separated numbers, got ','"),
     ("0.5,-1", "lam must be finite and >= 0, got -1.0"),
     ("0.5,abc", "lambda_grid must be comma-separated numbers, got '0.5,abc'"),
     ("0.5,,1", "lambda_grid must be comma-separated numbers, got '0.5,,1'"),
     ("0.5,0.5", "lambda_grid repeats 0.5")],
    ids=["empty", "non_positive", "non_numeric", "empty_item", "repeat"],
)
def test_grid_rejects_bad_lambda_grid(tmp_path, capsys, grid, message):
    paths = ["--manifest", "m.txt", "--features", "f", "--translations", "t.txt", "--gold", "g.tsv"]
    splits = ["--dev-manifest", "dev.txt", "--test-manifest", "test.txt"]
    code = main(["grid", *paths, *splits, "--output", str(tmp_path), "--lambda-grid", grid])
    assert code == 1
    assert message in capsys.readouterr().err


def _run_on_refused_corpus(tmp_path, monkeypatch, command, shapes, translations):
    """Run align or grid on utterances u1, u2 of the given frame shapes; return (exit code, spans built for)."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    rng = np.random.default_rng(0)
    for utt_id, shape in zip(("u1", "u2"), shapes):
        write_feature_file(corpus_dir / f"{utt_id}.feat", rng.normal(size=shape))
    (corpus_dir / "manifest.txt").write_text("u1\nu2\n")
    (corpus_dir / "translations.txt").write_text(translations)
    (corpus_dir / "gold.tsv").write_text("u1\t0\t0\t4\nu1\t1\t4\t8\n")
    (tmp_path / "dev.txt").write_text("u1\n")
    (tmp_path / "test.txt").write_text("u2\n")
    spans_for = []
    candidate_spans = trainer.candidate_spans

    def counted_spans(pair, *args, **kwargs):
        spans_for.append(pair.utt_id)
        return candidate_spans(pair, *args, **kwargs)

    monkeypatch.setattr(trainer, "candidate_spans", counted_spans)
    splits = ["--dev-manifest", str(tmp_path / "dev.txt"), "--test-manifest", str(tmp_path / "test.txt")]
    code = main(
        [
            command,
            *corpus_flags(corpus_dir, gold=True),
            "--output", str(tmp_path / "run"),
            *(splits if command == "grid" else []),
        ]
    )
    return code, spans_for


@pytest.mark.parametrize("command", ["align", "grid"])
def test_short_utterance_rejected_while_corpus_loads(tmp_path, capsys, monkeypatch, command):
    # u2 has 2 frames for 3 words, so no word-per-span alignment exists; the
    # corpus load refuses it before any candidate span or output directory.
    code, spans_for = _run_on_refused_corpus(tmp_path, monkeypatch, command, [(8, 2), (2, 2)], "aa bb\naa bb cc\n")
    assert code == 1
    assert "u2: 2 frames cannot cover 3 words" in capsys.readouterr().err
    assert spans_for == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["align", "grid"])
def test_mixed_feature_dimension_rejected_while_corpus_loads(tmp_path, capsys, monkeypatch, command):
    # With no word in common, the deficient model would train a prototype of each width.
    code, spans_for = _run_on_refused_corpus(tmp_path, monkeypatch, command, [(8, 12), (8, 13)], "aa bb\ncc dd\n")
    assert code == 1
    assert "u2: feature dimension 13 differs from u1's 12" in capsys.readouterr().err
    assert spans_for == []
    assert not (tmp_path / "run").exists()
