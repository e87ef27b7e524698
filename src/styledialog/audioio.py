"""16-bit PCM mono WAV reading/writing via the stdlib wave module.

A clip's int16 `pcm` is what its WAV holds: `write_wav` writes it as it is
and `read_wav` returns an `AudioClip` over the file's bytes, so a clip's
WAV round trip is bit-identical and makes no floats.  A WAV sampled too
slowly to analyse, a WAV with no frames, or a file that is not a 16-bit
mono WAV, is refused when read with a ValueError.
"""

from __future__ import annotations

import wave

import numpy as np

from .acoustics import check_sample_rate
from .dialog import AudioClip


def write_wav(path, clip: AudioClip) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(clip.pcm.tobytes())


def read_wav(path, source_id: str | None = None) -> AudioClip:
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
    if not raw:
        raise ValueError(f"{path}: holds no audio frames")
    # a view of bytes, so read-only
    return AudioClip(sample_rate=sr, pcm=np.frombuffer(raw, dtype=np.int16), source_id=source_id)
