"""16-bit PCM mono WAV reading/writing via the stdlib wave module.

Writing a WAV and rendering corpus audio in memory (quantize_int16) share
one int16 conversion, so a clip compared against its own file round-trip
is bit-identical.  A WAV sampled too slowly to analyse, or a file that is not
a 16-bit mono WAV, is refused when read with a ValueError.
"""

from __future__ import annotations

import wave

import numpy as np

from .acoustics import check_sample_rate
from .dialog import AudioClip


def _to_int16(samples) -> np.ndarray:
    """The 16-bit PCM values a WAV stores for float samples."""
    return np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767).astype(np.int16)


def quantize_int16(samples: np.ndarray) -> np.ndarray:
    """Round-trip float samples through int16, like a WAV write+read."""
    return _to_int16(samples).astype(np.float64) / 32767.0


def write_wav(path, clip: AudioClip) -> None:
    ints = _to_int16(clip.samples)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(ints.tobytes())


def read_wav(path, source_id: str | None = None) -> AudioClip:
    """Raises OSError when the file cannot be opened and ValueError for
    anything else wrong with it, including a file that is not a WAV."""
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
    # -32768 / 32767 lies just below -1, outside AudioClip's range: clamp it
    # rather than divide by 32768, which would break the bit-identity above
    samples = np.maximum(np.frombuffer(raw, dtype=np.int16) / 32767.0, -1.0)
    return AudioClip(sample_rate=sr, samples=samples, source_id=source_id)
