"""Core dialog types: audio clips, style vectors, turns, conversations,
and the conversation context shared by every other module.

`Turn` is the one utterance type: a corpus turn, an entry of the context
the generator reads, and the responder's reply are all `Turn`s.  All types
are immutable after construction (value semantics); a changed context is a
new object, made with `dataclasses.replace`, and its input is untouched.

Audio is 16-bit speech end to end, so an `AudioClip` holds read-only int16
`pcm`, 2 bytes per sample, and makes its float `samples` on each read.
Floats become a clip only through `AudioClip.from_samples`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

STYLE_DIM = 8
PCM_CHUNK = 1 << 13  # samples scaled at a time by `to_pcm`; bounds its memory


def to_pcm(samples: np.ndarray) -> np.ndarray:
    """The 16-bit PCM values a WAV stores for 1-D float samples in [-1, 1]."""
    pcm = np.empty(len(samples), dtype=np.int16)
    for start in range(0, len(samples), PCM_CHUNK):
        scaled = samples[start:start + PCM_CHUNK] * 32767.0
        pcm[start:start + PCM_CHUNK] = np.rint(scaled, out=scaled)
    return pcm


def from_pcm(pcm: np.ndarray) -> np.ndarray:
    """Read-only float samples of 16-bit PCM values.  -32768 / 32767 lies
    just below -1, outside a clip's range: it is clamped rather than divided
    by 32768, which would break the round-trip identity with `to_pcm`."""
    samples = pcm / 32767.0
    np.maximum(samples, -1.0, out=samples)
    samples.flags.writeable = False
    return samples


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare
class AudioClip:
    """Mono audio held as read-only 1-D int16 `pcm` of at least one sample.
    Each read of `samples` makes its floats, in [-1, 1], anew."""

    sample_rate: int
    pcm: np.ndarray
    source_id: str | None = None

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if getattr(self.pcm, "dtype", None) != np.int16 or self.pcm.ndim != 1:
            raise ValueError("pcm must be a 1-D int16 array")
        if not self.pcm.size:
            raise ValueError("a clip holds at least one sample")
        self.pcm.flags.writeable = False

    @classmethod
    def from_samples(cls, sample_rate: int, samples, source_id: str | None = None) -> AudioClip:
        """The clip of a non-empty 1-D array of finite float samples in [-1, 1]."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1 or not samples.size:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if samples.min() < -1.0 or samples.max() > 1.0:
            raise ValueError("samples must lie in [-1, 1]")
        return cls(sample_rate, to_pcm(samples), source_id)

    @property
    def samples(self) -> np.ndarray:
        return from_pcm(self.pcm)

    @property
    def duration_seconds(self) -> float:
        return len(self.pcm) / self.sample_rate


@dataclass(frozen=True)
class StyleVector:
    """Fixed-length paralinguistic summary.

    Prosodic styles are predicted per utterance; acoustic styles are
    pre-computed per speaker and carry the timbre.  The kind tag is
    preserved through every operation.
    """

    values: tuple[float, ...]
    kind: str  # "prosodic" | "acoustic"

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) != STYLE_DIM:
            raise ValueError(f"style vector must have {STYLE_DIM} entries, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("style entries must be finite")
        if self.kind not in ("prosodic", "acoustic"):
            raise ValueError(f"unknown style kind {self.kind!r}")
        object.__setattr__(self, "values", values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.float64)


@dataclass(frozen=True)
class Turn:
    """One utterance: who spoke, what was said, and (optionally) how: its
    audio, its prosodic style and the speaker's acoustic style.  The audio
    takes one of two forms, both read the same way (`sample_rate`, `pcm`,
    `samples`, `source_id`, `duration_seconds`): an `AudioClip`, such as a
    WAV's or a synthesizer's output, or a `corpus.SynthAudio`, a synth-backed
    turn's audio, rendered on first read."""

    speaker: str
    text: str
    audio: AudioClip | None = None
    prosodic_style: StyleVector | None = None
    acoustic_style: StyleVector | None = None

    def __post_init__(self):
        if self.text is None:
            raise ValueError("turn text may be empty but not None")
        if self.prosodic_style is not None and self.prosodic_style.kind != "prosodic":
            raise ValueError("turn style must be prosodic")
        if self.acoustic_style is not None and self.acoustic_style.kind != "acoustic":
            raise ValueError("turn acoustic style must be acoustic")


@dataclass(frozen=True)
class Conversation:
    id: str
    turns: tuple[Turn, ...]
    split: str = "train"  # "train" | "validation" | "test"

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))
        if self.split not in ("train", "validation", "test"):
            raise ValueError(f"unknown split {self.split!r}")


@dataclass(frozen=True)
class ConversationContext:
    """What the generator reads: the earlier turns, in order, each with its
    speaker, text and prosodic style, plus per-speaker reference styles
    (prosodic, acoustic)."""

    entries: tuple[Turn, ...] = ()
    reference_styles: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for turn in self.entries:
            if turn.prosodic_style is None:
                raise ValueError(f"turn by {turn.speaker!r} has no prosodic style")
        for speaker, (pro, aco) in self.reference_styles.items():
            if pro.kind != "prosodic" or aco.kind != "acoustic":
                raise ValueError(f"reference styles for {speaker!r} must be (prosodic, acoustic)")


@dataclass(frozen=True)
class DialogCrop:
    """A training/evaluation unit: every turn before the crop point as
    context, the last context turn as the incoming audio, and the next
    turn as the prediction target."""

    conversation_id: str
    context_turns: tuple[Turn, ...]
    target_turn: Turn

    def __post_init__(self):
        object.__setattr__(self, "context_turns", tuple(self.context_turns))
        if len(self.context_turns) < 1:
            raise ValueError("a crop needs at least one context turn")

    @property
    def incoming_turn(self) -> Turn:
        return self.context_turns[-1]


def make_crop(conv: Conversation, k: int) -> DialogCrop:
    """Crop at 1-based turn index k: context = turns 1..k, target = turn k+1."""
    n = len(conv.turns)
    if not 1 <= k <= n - 1:
        raise IndexError(f"crop index {k} out of range for a {n}-turn conversation")
    return DialogCrop(conversation_id=conv.id, context_turns=conv.turns[:k],
                      target_turn=conv.turns[k])


def sample_crop_index(conv: Conversation, rng_seed: int) -> int:
    """Uniform crop index in [1, len(turns) - 1], deterministic per seed."""
    n = len(conv.turns)
    if n < 2:
        raise ValueError(f"conversation {conv.id!r} has {n} turn(s); no valid crop")
    rng = random.Random(rng_seed)
    return rng.randint(1, n - 1)


def context_from_turns(turns, reference_styles) -> ConversationContext:
    """The context of fully processed turns (each must carry a prosodic
    style) and a copy of the reference styles."""
    return ConversationContext(entries=turns, reference_styles=dict(reference_styles))
