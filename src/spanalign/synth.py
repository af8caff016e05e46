"""Synthetic corpora sampled from the model family, with the parameters that generated them.

The `synth` command writes them.  The paper's corpora are unreleased, so
every end-to-end check in the tests and the benchmark runs on these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, SentencePair
from .model import ClusterInventory, ModelParams


@dataclass(frozen=True)
class SynthConfig:
    """Settings of the `synth` command: corpora sampled from the model family itself.

    Each word type gets a fixed prototype whose length is drawn uniformly
    from [proto_len_min, proto_len_max]; sentences are emitted as
    (optionally reordered) prototype concatenations with silences at word
    junctions.  With `bounds`, each pair carries its true word edges.
    The corpus keeps the default frame shift: `align --frame-shift-ms`
    sets the shift of a run, and no corpus file records one.
    """

    seed: int = 0
    vocab_size: int = 20
    sentences: int = 50
    sentence_len_min: int = 3
    sentence_len_max: int = 8
    # Default tokens are uniform (5 chars, 8 frames) so that the
    # char-proportional mu split matches the true slot geometry exactly;
    # mismatched length-to-char ratios bias the span prior off the truth.
    proto_len_min: int = 8
    proto_len_max: int = 8
    dim: int = 12
    noise_std: float = 0.0
    reorder_prob: float = 0.0
    silence_prob: float = 1.0
    silence_len_min: int = 9
    silence_len_max: int = 14
    bounds: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("vocab_size", "sentences", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("sentence_len", "proto_len", "silence_len"):
            lo, hi = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if not 1 <= lo <= hi:
                raise ValueError(f"need 1 <= {name}_min <= {name}_max, got {lo} and {hi}")
        if self.sentence_len_min > self.vocab_size:  # a sentence never repeats a type
            raise ValueError(
                f"sentence_len_min must be <= vocab_size, got {self.sentence_len_min} and {self.vocab_size}"
            )
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std)):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        for name in ("reorder_prob", "silence_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


# Tokens have one fixed length because the mu split allocates frames by
# character count, while every word's true slot is its prototype's length.
_TOKEN_CHARS = 5


def _sample_vocab(config: SynthConfig, rng: np.random.Generator) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    tokens: list[str] = []
    seen = set()
    while len(tokens) < config.vocab_size:
        token = "".join(letters[int(c)] for c in rng.integers(0, 26, size=_TOKEN_CHARS))
        if token not in seen:
            seen.add(token)
            tokens.append(token)
    return tokens


def synth_generate(config: SynthConfig) -> tuple[Corpus, ModelParams]:
    """Sample a corpus with gold links plus the true generating parameters.

    Gold links mark exactly the frames emitted for each word; silence
    frames are linked to no word.  With `config.bounds`, a word emitted
    on frames [s, e) puts the 1-indexed edges s + 1 and e in its pair's
    `boundaries`.
    """
    rng = np.random.default_rng(config.seed)
    tokens = _sample_vocab(config, rng)
    # Lengths have a stream of their own: the main stream sees them only
    # through the prototype sizes, so a fixed length draws nothing from it.
    lengths = np.random.default_rng([config.seed, 1]).integers(
        config.proto_len_min, config.proto_len_max + 1, size=len(tokens)
    )
    prototypes = {
        tok: rng.normal(0.0, 1.0, size=(int(n), config.dim)) for tok, n in zip(tokens, lengths)
    }

    pairs = []
    gold: dict[str, frozenset[tuple[int, int]]] = {}
    for n in range(config.sentences):
        utt_id = f"synth{n:04d}"
        l = int(rng.integers(config.sentence_len_min, config.sentence_len_max + 1))
        l = min(l, config.vocab_size)  # sentence_len_max may exceed the vocabulary
        # Without replacement: a sentence that repeats a type is ambiguous
        # on purpose (the per-word argmax may assign both words the same
        # span), which would make exact-recovery checks ill-posed.
        word_ids = [int(v) for v in rng.choice(config.vocab_size, size=l, replace=False)]
        words = tuple(tokens[v] for v in word_ids)

        order = list(range(l))
        for i in range(l - 1):
            if rng.random() < config.reorder_prob:
                order[i], order[i + 1] = order[i + 1], order[i]

        chunks: list[np.ndarray] = []
        energies: list[np.ndarray] = []
        spans: dict[int, tuple[int, int]] = {}
        cursor = 0

        def maybe_silence():
            nonlocal cursor
            if rng.random() < config.silence_prob:
                n_sil = int(rng.integers(config.silence_len_min, config.silence_len_max + 1))
                # Silence is low ENERGY, not low feature magnitude: pauses
                # carry loud non-repeating junk (breaths, clicks) so that a
                # span absorbing pause frames pays a real warping cost
                # instead of matching a repeatable near-constant chunk.
                chunks.append(3.0 * rng.standard_normal((n_sil, config.dim)))
                energies.append(rng.uniform(0.0, 0.02, size=n_sil))
                cursor += n_sil

        maybe_silence()
        for text_idx in order:
            proto = prototypes[words[text_idx]]
            chunks.append(proto.copy())
            energies.append(rng.uniform(0.8, 1.2, size=proto.shape[0]))
            spans[text_idx] = (cursor, cursor + proto.shape[0])
            cursor += proto.shape[0]
            maybe_silence()

        frames = np.concatenate(chunks, axis=0)
        if config.noise_std > 0:
            frames = frames + rng.normal(0.0, config.noise_std, size=frames.shape)
        energy = np.concatenate(energies)
        edges = [j for s, e in spans.values() for j in (s + 1, e)] if config.bounds else ()

        pairs.append(
            SentencePair(
                utt_id=utt_id,
                frames=frames,
                target_words=words,
                energy_track=energy,
                boundaries=edges,
            )
        )
        gold[utt_id] = frozenset(
            (word, frame) for word, (s, e) in spans.items() for frame in range(s, e)
        )

    corpus = Corpus(tuple(pairs), gold)

    inventory = ClusterInventory.build(tokens, k=1)
    u = np.full(config.vocab_size, 1.0 / config.vocab_size)
    true_params = ModelParams(
        inventory=inventory,
        u=u,
        prototypes=tuple(prototypes[inventory.owner[f]] for f in range(config.vocab_size)),
        variant="deficient",
    )
    return corpus, true_params
