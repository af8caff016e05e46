"""Frame-level alignment scores over link sets, and the report formats.

Links are (utt_id, word_index, frame_index) triples, both indices
0-indexed.  `cli` builds them: `_file_report` from alignment and gold
files for eval, and `_split_f` from grid's in-memory 1-indexed
inclusive spans.  All corpus-level figures are micro-averages over
links pooled across utterances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Scores(NamedTuple):
    precision: float
    recall: float
    f_score: float


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f_score: float
    per_utterance: dict[str, Scores]
    per_word_type: dict[str, Scores]


def score_links(predicted: set, gold: set) -> Scores:
    """Precision, recall, F over link sets.

    An empty side scores 1.0 against an empty counterpart and 0.0
    otherwise; F is the harmonic mean, 0 when both P and R vanish.
    """
    hits = len(predicted & gold)
    if predicted:
        precision = hits / len(predicted)
    else:
        precision = 1.0 if not gold else 0.0
    if gold:
        recall = hits / len(gold)
    else:
        recall = 1.0 if not predicted else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Scores(precision, recall, f_score)


def format_report(report: EvalReport) -> str:
    """Structured text dump: corpus figures then a per-utterance table."""
    lines = [
        f"precision\t{report.precision:.6f}",
        f"recall\t{report.recall:.6f}",
        f"f_score\t{report.f_score:.6f}",
        "",
        "utt_id\tprecision\trecall\tf_score",
    ]
    for utt_id, (p, r, f) in report.per_utterance.items():
        lines.append(f"{utt_id}\t{p:.6f}\t{r:.6f}\t{f:.6f}")
    return "\n".join(lines) + "\n"


def report_rows(report: EvalReport) -> str:
    """Machine-readable TSV: corpus row, then utterance and word-type rows."""
    lines = ["scope\tname\tprecision\trecall\tf_score"]
    lines.append(
        f"corpus\t-\t{report.precision!r}\t{report.recall!r}\t{report.f_score!r}"
    )
    for utt_id, (p, r, f) in report.per_utterance.items():
        lines.append(f"utterance\t{utt_id}\t{p!r}\t{r!r}\t{f!r}")
    for word, (p, r, f) in report.per_word_type.items():
        lines.append(f"word_type\t{word}\t{p!r}\t{r!r}\t{f!r}")
    return "\n".join(lines) + "\n"
