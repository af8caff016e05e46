"""Every statement of the package runs under its commands, apart from a listed few.

synth, align, eval and grid run in-process under a line tracer:

- two synthetic corpora, one with `.bounds` sidecars and one without
  and with sparse silences;
- a hand-written degenerate corpus: a one-word one-frame utterance, a
  one-word six-frame one (the single-word mu clamp), a two-frame
  two-word one (the retry after `NoCandidateSpansError`), `a`, a
  21-character word and `c` in 3 frames (`allocate_mu`'s donor loop),
  utterances without `.energy`, and a trailing blank line in
  `translations.txt`;
- align under both variants on each corpus, once with `--gold` and then
  with `--iterations 1` and no gold into the same directory, each run
  followed by eval; one eval reads a gold file that also names an
  utterance the alignments lack;
- a two-lambda grid.

The statements are those of every function body in `src/spanalign`,
found with `ast`.  `raise` statements, the bodies of `except` handlers
and `nonlocal` declarations are left out: they run only on bad input
or declare nothing.  The statements that never ran must be exactly
`ALLOWED`, so a statement that stops running fails the test, and so
does an allowed one that starts running.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import spanalign
from spanalign.cli import main

from corpus_flags import corpus_flags

PACKAGE = Path(spanalign.__file__).resolve().parent

_DEAD_WORD = "a word without a live cluster: perfbench's Tracer.on_e_step binds e_step's prev_assignments"
_WRITER = "synth makes no such corpus, but save_corpus takes every corpus that load_corpus reads"

# (module, function, statement) -> why no command runs it
ALLOWED = {
    ("model", "span_cost_rows", "return [{} for _ in prototypes]"):
        "a group without pairs: the acceptance instances name words that no utterance has",
    ("trainer", "_align_pair", "if prev is None:"): _DEAD_WORD,
    ("trainer", "_align_pair", "out.append(prev[i])"): _DEAD_WORD,
    ("trainer", "_align_pair", "continue"): _DEAD_WORD,
    ("dtw", "dba_centroid", "break"):
        "an update that worsens the DBA objective depends on the data (5 of 293 DBA calls on c5 seed 0)",
    ("corpus", "links_to_intervals", "out.append((word, start, prev + 1))"): f"gold in several runs: {_WRITER}",
    ("corpus", "links_to_intervals", "start = f"): f"gold in several runs: {_WRITER}",
    ("corpus", "save_corpus", "energy_path.unlink(missing_ok=True)"): f"a pair without energy: {_WRITER}",
    ("corpus", "save_corpus", '(out_dir / "gold.tsv").unlink(missing_ok=True)'): f"a corpus without gold: {_WRITER}",
}


def _statements(path: Path):
    """(function, text, lines) per statement of each function body; `lines` are its own, not its blocks'."""
    source = path.read_text()
    rows = source.encode().splitlines()  # ast offsets count UTF-8 bytes
    out = []

    def text_of(node, header):
        """The statement's first line if `header`, else its whole text with whitespace collapsed."""
        if header:
            return rows[node.lineno - 1].decode().strip()
        lines = rows[node.lineno - 1 : node.end_lineno]
        lines[-1] = lines[-1][: node.end_col_offset]
        lines[0] = lines[0][node.col_offset :]
        return " ".join(b" ".join(lines).decode().split())

    def walk(function, body):
        for node in body:
            if isinstance(node, (ast.Raise, ast.Nonlocal)):
                continue
            blocks = [getattr(node, name) for name in ("body", "orelse", "finalbody") if hasattr(node, name)]
            own = set(range(node.lineno, node.end_lineno + 1))
            for inner in [*(stmt for block in blocks for stmt in block), *getattr(node, "handlers", ())]:
                own -= set(range(inner.lineno, inner.end_lineno + 1))
            if not isinstance(node, ast.Try):  # `try:` runs no code of its own
                out.append((function, text_of(node, header=bool(blocks)), own))
            if isinstance(node, ast.FunctionDef):
                function_body(f"{function}.{node.name}", node)
            else:
                for block in blocks:
                    walk(function, block)

    def function_body(name, node):
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        walk(name, body)

    def scope(prefix, body):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                function_body(prefix + node.name, node)
            elif isinstance(node, ast.ClassDef):
                scope(f"{prefix}{node.name}.", node.body)

    scope("", ast.parse(source).body)
    return out


def _traced(run):
    """The (file, line) pairs of the package that ran while `run()` ran."""
    ran = set()
    prefix = str(PACKAGE)

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return ran


def _write_degenerate_corpus(root: Path) -> Path:
    """Utterances at the edges of segmentation and mu allocation, some without energy tracks."""
    rng = np.random.default_rng(3)
    sentences = {
        "one_frame": ("a", 1),
        "one_word": ("bb", 6),  # the single-word mu clamp
        "two_frames": ("a c", 2),  # shorter than span_min_len: NoCandidateSpansError
        "long_word": ("a " + "x" * 21 + " c", 3),  # allocate_mu's donor loop
        "plain": ("bb a c", 14),
        "plain_too": ("c bb", 11),
    }
    corpus = root / "degenerate"
    corpus.mkdir()
    gold = []
    for n, (utt_id, (sentence, m)) in enumerate(sentences.items()):
        frames = rng.normal(size=(m, 2))
        rows = "\n".join(" ".join(repr(v) for v in row) for row in frames.tolist())
        (corpus / f"{utt_id}.feat").write_text(f"{m} 2\n{rows}\n")
        if n % 2:
            energy = rng.uniform(0.5, 1.0, size=m)
            energy[m // 2 :][:4] = 0.0
            (corpus / f"{utt_id}.energy").write_text("\n".join(map(repr, energy.tolist())) + "\n")
        gold.append(f"{utt_id}\t0\t0\t1")
    (corpus / "manifest.txt").write_text("\n".join(sentences) + "\n")
    (corpus / "translations.txt").write_text("\n".join(s for s, _ in sentences.values()) + "\n\n")
    (corpus / "gold.tsv").write_text("\n".join(gold) + "\n")
    return corpus


def _commands(root: Path):
    """The command lines of the traced run, each one a list of arguments."""
    small = ["--vocab-size", "6", "--sentences", "8", "--sentence-len-min", "2", "--sentence-len-max", "4"]
    corpora = [root / "bounds", root / "sparse"]
    yield ["synth", "--output", str(corpora[0]), *small, "--noise-std", "0.1", "--reorder-prob", "0.3"]
    yield ["synth", "--output", str(corpora[1]), *small, "--no-bounds", "--silence-prob", "0.3"]
    corpora.append(_write_degenerate_corpus(root))
    for corpus in corpora:
        for variant in ("deficient", "proper"):
            out = root / f"{corpus.name}-{variant}"
            for extra in (["--gold", str(corpus / "gold.tsv")], ["--iterations", "1"]):
                yield ["align", *corpus_flags(corpus), "--output", str(out), "--variant", variant, *extra]
                yield ["eval", str(out / "alignments.tsv"), str(corpus / "gold.tsv"), "--output", str(out)]
    # A gold file that names an utterance the alignments lack.
    extra_gold = root / "extra_gold.tsv"
    extra_gold.write_text((corpora[0] / "gold.tsv").read_text() + "elsewhere\t0\t0\t3\n")
    yield ["eval", str(root / "bounds-deficient" / "alignments.tsv"), str(extra_gold)]
    ids = (corpora[1] / "manifest.txt").read_text().split()
    (root / "dev.txt").write_text("\n".join(ids[:4]) + "\n")
    (root / "test.txt").write_text("\n".join(ids[4:]) + "\n")
    yield ["grid", *corpus_flags(corpora[1], gold=True), "--output", str(root / "grid"),
           "--lambda-grid", "0.5,1.0", "--dev-manifest", str(root / "dev.txt"),
           "--test-manifest", str(root / "test.txt")]


def test_only_allowed_statements_are_unreached(tmp_path, capsys):
    if sys.gettrace() is not None:
        pytest.skip("another tracer is installed")

    def run():
        for argv in _commands(tmp_path):
            assert main(argv) == 0, argv

    ran = _traced(run)
    unreached = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for function, text, own in _statements(path):
            if not any((str(path), line) in ran for line in own):
                unreached[path.stem, function, text] += 1
    assert sorted(unreached.keys() - ALLOWED.keys()) == [], "statements that no command runs"
    assert sorted(ALLOWED.keys() - unreached.keys()) == [], "allowed statements that now run"
    assert unreached == Counter(ALLOWED.keys())  # each once
