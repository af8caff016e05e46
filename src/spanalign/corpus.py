"""Corpus types, file I/O and feature normalization.

On-disk layout:
  manifest           one tab-free utterance id per line, each once, no
                     blank line before the last
  <utt_id>.feat      header line "m d", then m lines of d floats; trailing
                     blank lines are ignored
  translations       one whitespace-tokenized sentence per manifest line
  gold file          utt_id<TAB>word_index<TAB>start_frame<TAB>end_frame,
                     0-indexed, end exclusive
  <utt_id>.energy    optional sidecar, one non-negative float per frame
  <utt_id>.bounds    optional sidecar, one 1-indexed boundary frame per line

This module is the only one that reads or writes these files.  Frame
spans are stored 1-indexed and inclusive inside the package; the
0-indexed end-exclusive convention applies to files only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np


class CorpusError(ValueError):
    """Malformed corpus input; the message names the file and line."""


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write via a new temp file and rename, so readers never see partials; umask sets the mode."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def frame_array(frames: np.ndarray) -> np.ndarray:
    """`frames` as a read-only (m >= 1, d >= 1) array of finite values; contiguous float64 is not copied."""
    arr = np.ascontiguousarray(frames, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise CorpusError(f"feature matrix must have shape (m>=1, d>=1), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise CorpusError("feature matrix contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SentencePair:
    """An utterance's (m, d) feature frames paired with its translation sentence.

    The one home of the per-utterance rules that training and segmentation
    assume: at least one frame per word, one finite non-negative energy
    value per frame, and sorted unique boundaries inside [1, m].
    """

    utt_id: str
    frames: np.ndarray
    target_words: tuple[str, ...]
    energy_track: np.ndarray | None = None
    boundaries: tuple[int, ...] = ()  # known word-edge frames, 1-indexed; kept sorted and unique

    def __post_init__(self):
        if not self.utt_id:
            raise CorpusError("empty utterance id")
        object.__setattr__(self, "frames", frame_array(self.frames))
        if len(self.target_words) < 1:
            raise CorpusError(f"{self.utt_id}: empty target sentence")
        if not all(self.target_words):
            raise CorpusError(f"{self.utt_id}: empty token")
        if self.m < self.l:  # every word takes a span of at least one frame
            raise CorpusError(f"{self.utt_id}: {self.m} frames cannot cover {self.l} words")
        if self.energy_track is not None:
            e = np.asarray(self.energy_track, dtype=np.float64)
            if e.ndim != 1 or e.shape[0] != self.m:
                raise CorpusError(f"{self.utt_id}: energy track length does not match frame count")
            if not np.isfinite(e).all() or (e < 0).any():
                raise CorpusError(f"{self.utt_id}: energy track must be finite and non-negative")
            e.setflags(write=False)
            object.__setattr__(self, "energy_track", e)
        points = tuple(sorted(set(self.boundaries)))
        if points and not (1 <= points[0] and points[-1] <= self.m):
            raise CorpusError(f"{self.utt_id}: boundaries must lie in [1, {self.m}]")
        object.__setattr__(self, "boundaries", points)

    @property
    def char_lengths(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.target_words)

    @property
    def l(self) -> int:
        return len(self.target_words)

    @property
    def m(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class Corpus:
    """An ordered collection of sentence pairs and optional gold links.

    Every pair has the first pair's feature dimension, as prototypes and span costs need.
    """

    pairs: tuple[SentencePair, ...]
    gold: dict[str, frozenset[tuple[int, int]]] | None = None  # utt_id -> 0-indexed (word, frame) links

    def __post_init__(self):
        seen = set()
        for pair in self.pairs:
            if pair.utt_id in seen:
                raise CorpusError(f"duplicate utterance id {pair.utt_id!r}")
            seen.add(pair.utt_id)
            first = self.pairs[0]
            if pair.frames.shape[1] != first.frames.shape[1]:
                raise CorpusError(
                    f"{pair.utt_id}: feature dimension {pair.frames.shape[1]} differs from "
                    f"{first.utt_id}'s {first.frames.shape[1]}"
                )
        if self.gold is not None:
            by_id = {p.utt_id: p for p in self.pairs}
            for utt_id, links in self.gold.items():
                if utt_id not in by_id:
                    raise CorpusError(f"gold alignment for unknown utterance {utt_id!r}")
                pair = by_id[utt_id]
                for word, frame in links:
                    if not (0 <= word < pair.l) or not (0 <= frame < pair.m):
                        raise CorpusError(
                            f"{utt_id}: gold link ({word}, {frame}) out of range "
                            f"for l={pair.l}, m={pair.m}"
                        )

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# file readers / writers
# ---------------------------------------------------------------------------

def _read_lines(path: Path | str, keep: int = 0) -> list[str]:
    """The file's lines, split at newlines only (`str.splitlines` also splits at U+0085 and kin).

    Trailing blank lines are dropped, except any among the first `keep` lines.
    A byte that is not UTF-8 is a `CorpusError` naming its line.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        text = handle.read()
    try:
        text.encode()  # fails at the lone surrogate that stands for a byte that is not UTF-8
    except UnicodeEncodeError as exc:
        line = text.count("\n", 0, exc.start) + 1
        raise CorpusError(f"{path}:{line}: not UTF-8 text") from None
    lines = text.removesuffix("\n").split("\n") if text else []
    while len(lines) > keep and not lines[-1].strip():
        lines.pop()
    return lines


def _nonblank_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """(lineno, line) for each non-blank line, numbered from 1, without its newline."""
    return ((n, line) for n, line in enumerate(_read_lines(path), 1) if line.strip())


def read_feature_file(path: Path | str) -> np.ndarray:
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise CorpusError(f"{path}: empty feature file")
    header = lines[0].split()
    if len(header) != 2:
        raise CorpusError(f"{path}:1: header must be 'm d', got {lines[0]!r}")
    try:
        m, d = int(header[0]), int(header[1])
    except ValueError:
        raise CorpusError(f"{path}:1: header must be two integers, got {lines[0]!r}") from None
    if m < 1 or d < 1:
        raise CorpusError(f"{path}:1: header must declare m >= 1 and d >= 1, got {lines[0]!r}")
    values = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != d:
            raise CorpusError(f"{path}:{i}: expected {d} values, got {len(parts)}")
        try:
            values.append([float(p) for p in parts])
        except ValueError:
            raise CorpusError(f"{path}:{i}: non-numeric value") from None
    if len(values) != m:
        raise CorpusError(f"{path}: header declares {m} frames, file has {len(values)}")
    rows = np.array(values, dtype=np.float64)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise CorpusError(f"{path}:{int(finite.argmin()) + 2}: non-finite feature value")
    return rows


def write_feature_file(path: Path | str, frames: np.ndarray) -> None:
    lines = [f"{frames.shape[0]} {frames.shape[1]}"]
    for row in frames.tolist():
        lines.append(" ".join(repr(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_energy_file(path: Path | str, m: int) -> np.ndarray:
    """Parse a sidecar of non-negative energy values, one per frame and line."""
    values = []
    for lineno, line in _nonblank_lines(path):
        try:
            value = float(line)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: non-numeric energy value") from None
        if not 0.0 <= value < math.inf:
            raise CorpusError(f"{path}:{lineno}: energy must be finite and non-negative, got {line.strip()}")
        values.append(value)
    if len(values) != m:
        raise CorpusError(f"{path}: expected {m} energy values, got {len(values)}")
    return np.array(values, dtype=np.float64)


def write_energy_file(path: Path | str, energy: np.ndarray) -> None:
    atomic_write_text(path, "\n".join(repr(float(v)) for v in energy) + "\n")


def read_boundary_file(path: Path | str, m: int) -> tuple[int, ...]:
    """Parse a sidecar of 1-indexed boundary frame indices, one per line, in file order."""
    points = []
    for lineno, line in _nonblank_lines(path):
        try:
            value = int(line)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: non-integer boundary") from None
        if not (1 <= value <= m):
            raise CorpusError(f"{path}:{lineno}: boundary {value} outside [1, {m}]")
        points.append(value)
    return tuple(points)


def read_manifest(path: Path | str) -> list[str]:
    """Unique tab-free utterance ids, one per line; trailing blank lines are ignored, inner ones rejected."""
    utt_ids = [ln.strip() for ln in _read_lines(path)]
    first: dict[str, int] = {}
    for lineno, utt_id in enumerate(utt_ids, start=1):
        if not utt_id:
            raise CorpusError(f"{path}:{lineno}: blank utterance id")
        if "\t" in utt_id:  # alignment and gold rows are tab-separated
            raise CorpusError(f"{path}:{lineno}: utterance id {utt_id!r} contains a tab")
        if first.setdefault(utt_id, lineno) != lineno:
            raise CorpusError(f"{path}:{lineno}: utterance id {utt_id!r} repeats line {first[utt_id]}")
    if not utt_ids:
        raise CorpusError(f"{path}: empty manifest")
    return utt_ids


def links_to_intervals(links: Iterable[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Collapse (word, frame) links into (word, start, end) runs, end exclusive."""
    by_word: dict[int, list[int]] = {}
    for word, frame in links:
        by_word.setdefault(word, []).append(frame)
    out = []
    for word in sorted(by_word):
        frames = sorted(by_word[word])
        start = prev = frames[0]
        for f in frames[1:]:
            if f != prev + 1:
                out.append((word, start, prev + 1))
                start = f
            prev = f
        out.append((word, start, prev + 1))
    return out


def read_interval_rows(
    path: Path | str, n_fields: int, columns: tuple[int, int, int]
) -> Iterator[tuple[int, list[str], int, int, int]]:
    """(lineno, fields, word, start, end) per non-blank row; `columns` locates word, start and end."""
    word_col, start_col, end_col = columns
    for lineno, line in _nonblank_lines(path):
        parts = line.split("\t")
        if len(parts) != n_fields:
            raise CorpusError(f"{path}:{lineno}: expected {n_fields} tab-separated fields")
        try:
            word, start, end = int(parts[word_col]), int(parts[start_col]), int(parts[end_col])
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: non-integer field") from None
        if word < 0:
            raise CorpusError(f"{path}:{lineno}: negative word index {word}")
        if start < 0 or end <= start:
            raise CorpusError(f"{path}:{lineno}: invalid interval [{start}, {end})")
        yield lineno, parts, word, start, end


def read_gold_file(path: Path | str) -> dict[str, frozenset[tuple[int, int]]]:
    links: dict[str, set[tuple[int, int]]] = {}
    for _, parts, word, start, end in read_interval_rows(path, 4, (1, 2, 3)):
        links.setdefault(parts[0], set()).update((word, f) for f in range(start, end))
    return {u: frozenset(s) for u, s in links.items()}


def write_gold_file(path: Path | str, gold: dict[str, frozenset[tuple[int, int]]]) -> None:
    lines = []
    for utt_id in sorted(gold):
        for word, start, end in links_to_intervals(gold[utt_id]):
            lines.append(f"{utt_id}\t{word}\t{start}\t{end}")
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_corpus(
    manifest_path: Path | str,
    feature_dir: Path | str,
    translations_path: Path | str,
    gold_path: Path | str | None = None,
    normalize: bool = False,
) -> Corpus:
    """Load a corpus from the external file layout, validating as it goes.

    With `normalize`, each pair is built on `normalize_utterance` of its frames.
    """
    feature_dir = Path(feature_dir)
    utt_ids = read_manifest(manifest_path)

    sentences = _read_lines(translations_path, keep=len(utt_ids))
    if len(sentences) != len(utt_ids):
        raise CorpusError(
            f"{translations_path}: {len(sentences)} sentences for {len(utt_ids)} manifest entries"
        )

    pairs = []
    for lineno, (utt_id, sentence) in enumerate(zip(utt_ids, sentences), start=1):
        words = tuple(sentence.split())
        if not words:
            raise CorpusError(f"{translations_path}:{lineno}: empty sentence for {utt_id}")
        frames = read_feature_file(feature_dir / f"{utt_id}.feat")
        energy_path = feature_dir / f"{utt_id}.energy"
        energy = read_energy_file(energy_path, len(frames)) if energy_path.exists() else None
        bounds_path = feature_dir / f"{utt_id}.bounds"
        bounds = read_boundary_file(bounds_path, len(frames)) if bounds_path.exists() else ()
        pairs.append(
            SentencePair(
                utt_id=utt_id,
                frames=normalize_utterance(frames) if normalize else frames,
                target_words=words,
                energy_track=energy,
                boundaries=bounds,
            )
        )

    gold = read_gold_file(gold_path) if gold_path is not None else None
    return Corpus(tuple(pairs), gold)


def save_corpus(corpus: Corpus, out_dir: Path | str) -> None:
    """Write a corpus back out in the external layout (features beside manifest)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "manifest.txt", "\n".join(p.utt_id for p in corpus.pairs) + "\n")
    atomic_write_text(
        out_dir / "translations.txt",
        "\n".join(" ".join(p.target_words) for p in corpus.pairs) + "\n",
    )
    # An optional file this corpus lacks is removed: a stale one would be read back as its own.
    for pair in corpus.pairs:
        write_feature_file(out_dir / f"{pair.utt_id}.feat", pair.frames)
        energy_path = out_dir / f"{pair.utt_id}.energy"
        if pair.energy_track is not None:
            write_energy_file(energy_path, pair.energy_track)
        else:
            energy_path.unlink(missing_ok=True)
        bounds_path = out_dir / f"{pair.utt_id}.bounds"
        if pair.boundaries:
            atomic_write_text(bounds_path, "\n".join(map(str, pair.boundaries)) + "\n")
        else:
            bounds_path.unlink(missing_ok=True)
    if corpus.gold:
        write_gold_file(out_dir / "gold.tsv", corpus.gold)
    else:
        (out_dir / "gold.tsv").unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_utterance(frames: np.ndarray) -> np.ndarray:
    """Scale each dimension to zero mean and unit population variance.

    Dimensions with zero variance are shifted to zero and left unscaled.
    """
    mean = frames.mean(axis=0)
    var = frames.var(axis=0)
    centered = frames - mean
    scale = np.where(var > 0.0, np.sqrt(var), 1.0)
    return centered / scale
