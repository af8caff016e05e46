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
