"""16-bit PCM mono WAV reading/writing via the stdlib wave module, and the
one form in which loaded audio is held.

Audio whose source is 16-bit PCM, a WAV or a synth render, is held as a
`PcmClip` of read-only int16 values: 2 bytes per sample, where float64
would take 8.  Its float `samples` are made on each read by `from_pcm`,
and `to_pcm` is the conversion the other way, which a WAV write and a
synth render share, so a clip compared against its own file round-trip is
bit-identical.  A WAV sampled too slowly to analyse, or a file that is not
a 16-bit mono WAV, is refused when read with a ValueError.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .acoustics import check_sample_rate
from .dialog import AudioClip


def to_pcm(samples) -> np.ndarray:
    """The 16-bit PCM values a WAV stores for float samples."""
    return np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767).astype(np.int16)


def from_pcm(pcm: np.ndarray) -> np.ndarray:
    """Read-only float samples of 16-bit PCM values.  -32768 / 32767 lies
    just below -1, outside a clip's range: it is clamped rather than divided
    by 32768, which would break the round-trip identity with `to_pcm`."""
    samples = pcm / 32767.0
    np.maximum(samples, -1.0, out=samples)
    samples.flags.writeable = False
    return samples


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare
class PcmClip:
    """Mono audio held as read-only int16 `pcm`.  Reads like an `AudioClip`:
    each read of `samples` makes its floats anew."""

    sample_rate: int
    pcm: np.ndarray
    source_id: str | None = None

    @property
    def samples(self) -> np.ndarray:
        return from_pcm(self.pcm)

    @property
    def duration_seconds(self) -> float:
        return len(self.pcm) / self.sample_rate


def write_wav(path, clip: AudioClip) -> None:
    ints = to_pcm(clip.samples)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(ints.tobytes())


def read_wav(path, source_id: str | None = None) -> PcmClip:
    """The file's PCM, not copied.  Raises OSError when the file cannot be
    opened and ValueError for anything else wrong with it, including a file
    that is not a WAV."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()} bits")
            sr = fh.getframerate()
            check_sample_rate(sr)
            raw = fh.readframes(fh.getnframes())
    except (EOFError, wave.Error) as exc:  # EOFError: the file ends inside a header
        raise ValueError(f"{path}: not a readable WAV file: {str(exc) or 'it ends early'}") from exc
    # a view of bytes, so read-only
    return PcmClip(sample_rate=sr, pcm=np.frombuffer(raw, dtype=np.int16), source_id=source_id)
