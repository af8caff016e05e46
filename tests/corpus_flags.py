"""The command-line flags that point align or grid at a corpus directory written by synth."""


def corpus_flags(corpus_dir, *, gold=False):
    """--manifest, --features and --translations for `corpus_dir`, then --gold when `gold` is set."""
    flags = [
        "--manifest", str(corpus_dir / "manifest.txt"),
        "--features", str(corpus_dir),
        "--translations", str(corpus_dir / "translations.txt"),
    ]
    return [*flags, "--gold", str(corpus_dir / "gold.tsv")] if gold else flags
