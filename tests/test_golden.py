"""Golden outputs: `synth` -> `align` -> `eval` on a small pinned corpus.

The digests pin the bytes of every output file, so a refactor that is
meant to keep behaviour must leave them unchanged.  A change that alters
results on purpose updates them and says why.
"""

import hashlib

import pytest

from spanalign.cli import main

GOLDEN = {
    "deficient": {
        "alignments.tsv": "e29e0c01c611713c60caf1cd5e9f33a215b55af97d03560177355a04983af16e",
        "checkpoint.json": "b0a29c3480f8afbd8bab65085620b3aea1f4c345f4fc81800505fde6b748016d",
        "report.txt": "6b97ab4f11409f6d27fecac0c7525b48bd5d70df259832b95f4ffc868449ac07",
        "report.tsv": "89699023178a9dfab6b3e78586b35d32ca24ac979a4f37e49e48bfab6733ee73",
    },
    "proper": {
        "alignments.tsv": "08a39b21ea5421a5019a287cf1851a0714d33d9309ce3c41e4e0c589af1b1ec9",
        "checkpoint.json": "76aec259b1ac84489ddf7a399676215de3791796f64184acd4becaf4c0747a2f",
        "report.txt": "54ad43127120b3463bf385c215ed920f4ccc1c446125143fbfc9d71286129979",
        "report.tsv": "8b5b4afa04ec5def7a159a44eda3b5c2080a5190c05299f72b8594835443e3c4",
    },
}

# iteration_log.tsv without its seconds column: the totals pin the order in
# which word scores are summed, which the output digests do not see.
ITERATION_LOG = {
    "deficient": [
        "# variant = deficient", "# seed = 0", "# lambda = 0.5", "iteration\ttotal_log_score",
        "0\t-656.7010891419741", "1\t-643.3593804589453", "2\t-606.1702190973888", "3\t-605.370131749896",
    ],
    "proper": [
        "# variant = proper", "# seed = 0", "# lambda = 0.5", "iteration\ttotal_log_score",
        "0\t-531.3896255469796", "1\t-525.0014245978641", "2\t-484.1524677001969", "3\t-483.3038754036103",
    ],
}


# grid_report.tsv of a three-lambda sweep on a corpus without .bounds sidecars
# (dev F 0.565, 0.598 and 0.663; lambda 2.0 selected).
GRID_REPORT = "0689b8b2f6aa77cb3d4ed8871931c521d78167f00e359a7ac940b9acdaf32fbb"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "corpus"
    synth = ["--sentences", "8", "--vocab-size", "6", "--noise-std", "0.1", "--reorder-prob", "0.1"]
    assert main(["synth", "--output", str(out), *synth]) == 0
    return out


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_outputs_match_golden_digests(corpus_dir, tmp_path, variant):
    run = tmp_path / "run"
    report = tmp_path / "report"
    code = main(
        [
            "align",
            "--manifest", str(corpus_dir / "manifest.txt"),
            "--features", str(corpus_dir),
            "--translations", str(corpus_dir / "translations.txt"),
            "--gold", str(corpus_dir / "gold.tsv"),
            "--output", str(run),
            "--threads", "1",
            "--variant", variant,
        ]
    )
    assert code == 0
    assert main(["eval", str(run / "alignments.tsv"), str(corpus_dir / "gold.tsv"), "--output", str(report)]) == 0
    files = {"alignments.tsv": run, "checkpoint.json": run, "report.txt": report, "report.tsv": report}
    digests = {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name, d in files.items()}
    assert digests == GOLDEN[variant]
    lines = (run / "iteration_log.tsv").read_text().splitlines()
    assert ["\t".join(line.split("\t")[:2]) for line in lines] == ITERATION_LOG[variant]


def test_grid_report_matches_golden_digest(tmp_path):
    corpus = tmp_path / "corpus"
    synth = ["--sentences", "20", "--vocab-size", "8", "--noise-std", "0.1", "--reorder-prob", "0.1",
             "--no-bounds", "--silence-prob", "0.3"]
    assert main(["synth", "--output", str(corpus), *synth]) == 0
    ids = (corpus / "manifest.txt").read_text().split()
    (tmp_path / "dev.txt").write_text("\n".join(ids[:8]) + "\n")
    (tmp_path / "test.txt").write_text("\n".join(ids[-12:]) + "\n")
    code = main(
        [
            "grid",
            "--manifest", str(corpus / "manifest.txt"),
            "--features", str(corpus),
            "--translations", str(corpus / "translations.txt"),
            "--gold", str(corpus / "gold.tsv"),
            "--output", str(tmp_path / "grid"),
            "--dev-manifest", str(tmp_path / "dev.txt"),
            "--test-manifest", str(tmp_path / "test.txt"),
            "--lambda-grid", "0.1,0.5,2.0",
        ]
    )
    assert code == 0
    assert hashlib.sha256((tmp_path / "grid" / "grid_report.tsv").read_bytes()).hexdigest() == GRID_REPORT
