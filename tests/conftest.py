import wave

import numpy as np
import pytest

from styledialog.dialog import AudioClip, Conversation, StyleVector, Turn

SR = 16000


def sine_clip(freq_hz, duration_s=1.0, amplitude=0.4, sr=SR, source_id=None):
    t = np.arange(int(sr * duration_s)) / sr
    return AudioClip.from_samples(sr, amplitude * np.sin(2 * np.pi * freq_hz * t),
                                  source_id=source_id)


def silence_clip(duration_s=1.0, sr=SR):
    return AudioClip.from_samples(sr, np.zeros(int(sr * duration_s)))


def noise_clip(duration_s=1.0, amplitude=0.3, sr=SR, seed=0):
    rng = np.random.default_rng(seed)
    x = np.clip(amplitude * rng.standard_normal(int(sr * duration_s)), -1, 1)
    return AudioClip.from_samples(sr, x)


def write_empty_wav(path, sr=SR):
    """A 16-bit mono WAV holding no frames, which no `AudioClip` can hold."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sr)


def prosodic(values):
    return StyleVector(values=tuple(values), kind="prosodic")


def acoustic(values):
    return StyleVector(values=tuple(values), kind="acoustic")


def simple_style(pitch=0.44, energy=0.15, hnr=0.75, rate=0.3):
    return prosodic([pitch, 0.05, energy, 0.02, hnr, rate, 0.2, 1.0])


def make_conversation(conv_id="conv", n_turns=4, speakers=("alice", "bob")):
    turns = []
    for i in range(n_turns):
        spk = speakers[i % len(speakers)]
        turns.append(Turn(speaker=spk, text=f"turn {i} words here",
                          audio=sine_clip(200 + 20 * i, 0.3,
                                          source_id=f"{conv_id}/{i}"),
                          prosodic_style=simple_style(0.3 + 0.02 * i)))
    return Conversation(id=conv_id, turns=tuple(turns), split="test")


@pytest.fixture
def conv():
    return make_conversation()
