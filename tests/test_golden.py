"""Golden outputs: `synth` -> `align` -> `eval` on a small pinned corpus.

The digests pin the bytes of every file `synth` writes and of every
output file, so a refactor that is meant to keep behaviour must leave
them unchanged.  A change that alters results on purpose updates them
and says why.
"""

import hashlib

import pytest

from spanalign.cli import main

from corpus_flags import corpus_flags

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

# Every file `synth` writes for the golden corpus, `.bounds` sidecars included.
SYNTH_FILES = {
    "gold.tsv": "39a5d456d59af493e45e7e4559e8272dfd4a1b000036ee5450deba9dadda3e8d",
    "manifest.txt": "9a3efbc2f5c3894564643af678b684dd50d69934ddc4854cf51d59c8464714b7",
    "synth0000.bounds": "8f8c54c81066fae24fa4ff8d235e3eb3f42e33d3bd877565eaa8779334ed42c5",
    "synth0000.energy": "f54660e0fee39f794199f57b4f8bc18271f750e7c296861db113dc0cfdc8cffd",
    "synth0000.feat": "d3b0b4ea908f7f31c8ce9998f891d8b72cca9183c2475c5b206f8b8e5c5f0876",
    "synth0001.bounds": "0c4840b0157f4950e4e4ff3470c40faa88acfeb254a83b8b855d774f5dca99d8",
    "synth0001.energy": "d43164820a6118e879787a001f305ea3d15757bd7ceeb53f6332b8b21346fc2f",
    "synth0001.feat": "4798f8c4daf70a4aeb208a39d46bb33cde6d705559573addbfb76817b4262776",
    "synth0002.bounds": "56cf0292a65752a70190666678134451251f08ad32ee9e3da74c956c70928f4d",
    "synth0002.energy": "ea2167654da2153cc7e8ccb8a62292e85375a2fb7e3a52f59199b314ec5115ba",
    "synth0002.feat": "9d73664e190fb2478cf52a0be2a168617fd127591eb9d5b2dd1df50624161d29",
    "synth0003.bounds": "8d5928285ceae1e241ab7699dc6dc15898bdbc3adb420d953daf381a65b53afe",
    "synth0003.energy": "8948711483a43fe8027646b9e450eac11b274bb5fbd7b207ea3ed57d320d5161",
    "synth0003.feat": "5cd7c31ab4f0ccb795e95b851f229252da4bedb58c36d4213dcd681db7dd7b19",
    "synth0004.bounds": "e6d348274fc57ed58a275aaf50732c0330944c7348f6a8d521678179c81a0be0",
    "synth0004.energy": "d2cd8d958704c473bb3d57e8323ccb69a20a5d8e543ad649c5949eec95e5f87b",
    "synth0004.feat": "a38173286d754d07f85be7e4257ad6028fdbb1ba23eae81345ff471b04e55008",
    "synth0005.bounds": "8d25fbcfed40fbbfcbcc67809855d005501bbf935af71094f75dd622a8b4046e",
    "synth0005.energy": "c82ff01205d1f06167367213f74b15183485a85a6e88378df55992a2db5b7e9f",
    "synth0005.feat": "f924cc03808a8e7b2b5fe75380aa54ff7c634c13419fdd1cd64954dc93cb15c2",
    "synth0006.bounds": "6a47074e45b8110361c7d255830ae0646417f737bf3e72a4eb0afed3dac1ff26",
    "synth0006.energy": "68846d928c40e79eb523d86704f338e8e349c5199359c224deea55b5208a185e",
    "synth0006.feat": "8bfa28f73e33c7bbe6d5e787832ee6170a12f3eaa05e70d2d0a3e4c0695e4c4e",
    "synth0007.bounds": "2c6d3374340545ec9d1a89cb93dd985902e800f9006950475704118f789b12c4",
    "synth0007.energy": "63851c9cfaf63fd800bec9b358a706eb2308aea64f37f270379af8bc7428b263",
    "synth0007.feat": "e637c6bff0aace90648a78f4d228f6f5eea16ff87ee4a97b45a65ca4ec57aba4",
    "translations.txt": "f6a6cb3ed660fcc7e1b9dcb772342d0d39b3beb9ce3819cf3dcd424714e2e8dc",
    "true_params.json": "dedf55d7ac3e648e86a004dbce262cd40541b0e0d92660753c49c66f2f9f3ee7",
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


def test_synth_files_match_golden_digests(corpus_dir):
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in corpus_dir.iterdir()}
    assert digests == SYNTH_FILES


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_outputs_match_golden_digests(corpus_dir, tmp_path, variant):
    run = tmp_path / "run"
    report = tmp_path / "report"
    code = main(
        [
            "align",
            *corpus_flags(corpus_dir, gold=True),
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
            *corpus_flags(corpus, gold=True),
            "--output", str(tmp_path / "grid"),
            "--dev-manifest", str(tmp_path / "dev.txt"),
            "--test-manifest", str(tmp_path / "test.txt"),
            "--lambda-grid", "0.1,0.5,2.0",
        ]
    )
    assert code == 0
    assert hashlib.sha256((tmp_path / "grid" / "grid_report.tsv").read_bytes()).hexdigest() == GRID_REPORT
