import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from styledialog import acoustics
from styledialog.acoustics import (acoustic_embedding, analyze, encode_style, frame_len, hnr,
                                   hop_len, pitch_track, summarize)
from styledialog.components import ToySynthesizer
from styledialog.dialog import AudioClip
from conftest import SR, acoustic, noise_clip, prosodic, silence_clip, sine_clip
from oracles import (acoustic_embedding_whole, encode_style_helpers, nccf_track_brute,
                     summarize_helpers)


class TestFrameSpec:
    def test_defaults(self):
        assert frame_len(16000) == 400
        assert hop_len(16000) == 160


class TestPitchTrack:
    @pytest.mark.parametrize("freq", [110.0, 220.0, 330.0, 440.0])
    def test_sine_within_two_percent(self, freq):
        f0, voiced = pitch_track(sine_clip(freq))
        assert voiced.all()
        measured = float(np.mean(f0[voiced]))
        assert abs(measured - freq) / freq < 0.02

    def test_220_within_2hz(self):
        f0, voiced = pitch_track(sine_clip(220.0))
        assert np.all(np.abs(f0[voiced] - 220.0) <= 2.0)

    def test_silence_unvoiced(self):
        _, voiced = pitch_track(silence_clip())
        assert not voiced.any()

    def test_noise_mostly_unvoiced(self):
        _, voiced = pitch_track(noise_clip(seed=3))
        assert float(np.mean(voiced)) < 0.2

    def test_short_clip_empty_track(self):
        clip = AudioClip.from_samples(16000, np.zeros(100))
        f0, voiced = pitch_track(clip)
        assert f0.size == 0 and voiced.size == 0

    def test_invalid_band(self):
        # below 2 * F_MAX_HZ the pitch band passes Nyquist
        pitch_track(AudioClip.from_samples(1000, np.zeros(1000)))
        with pytest.raises(ValueError, match="sample rate 800 Hz"):
            pitch_track(AudioClip.from_samples(800, np.zeros(800)))


def energy_stats(clip):
    """(mean, population std) of the clip's per-frame RMS, from its summary."""
    s = summarize(clip)
    return s.energy_mean, s.energy_std


class TestEnergyStats:
    def test_sine_rms(self):
        amp = 0.5
        mean, _ = energy_stats(sine_clip(220.0, amplitude=amp))
        assert abs(mean - amp / math.sqrt(2)) / (amp / math.sqrt(2)) < 0.01

    def test_silence(self):
        assert energy_stats(silence_clip()) == (0.0, 0.0)

    def test_half_silence_bimodal(self):
        sr = SR
        t = np.arange(sr) / sr
        x = np.concatenate([np.zeros(sr), 0.5 * np.sin(2 * np.pi * 220 * t)])
        mean, std = energy_stats(AudioClip.from_samples(sr, x))
        assert 0.7 < std / mean < 1.3  # two-level frame population

    def test_amplitude_scaling_exact(self):
        base = sine_clip(220.0, amplitude=0.3)
        scaled = AudioClip.from_samples(base.sample_rate, 2.0 * base.samples)
        m1, _ = energy_stats(base)
        m2, _ = energy_stats(scaled)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)


class TestHnr:
    def test_pure_sine_clamps_high(self):
        assert hnr(analyze(sine_clip(220.0))) == 40.0

    def test_white_noise_low(self):
        assert hnr(analyze(noise_clip(seed=1))) <= 0.0

    def test_equal_power_mix_moderate(self):
        sr = SR
        t = np.arange(sr) / sr
        sig = 0.3 * np.sin(2 * np.pi * 220 * t)
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(sr)
        noise *= np.sqrt(np.mean(sig ** 2) / np.mean(noise ** 2))
        clip = AudioClip.from_samples(sr, np.clip(sig + noise, -1, 1))
        assert 0.0 <= hnr(analyze(clip)) <= 10.0

    def test_monotone_in_noise(self):
        sr = SR
        t = np.arange(sr) / sr
        sig = 0.4 * np.sin(2 * np.pi * 220 * t)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(sr)
        values = []
        for sigma in (0.0, 0.25, 0.5, 1.0):
            x = np.clip(sig + sigma * 0.1 * noise, -1, 1)
            values.append(hnr(analyze(AudioClip.from_samples(sr, x))))
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_all_silence_floor(self):
        assert hnr(analyze(silence_clip())) == -20.0


class TestSpeakingRate:
    def test_bump_train(self):
        # 4 clean energy bumps over 2 seconds -> 2 events/s
        sr = SR
        t = np.arange(2 * sr) / sr
        env = np.sin(np.pi * ((t * 2.0) % 1.0)) ** 2
        x = 0.5 * env * np.sin(2 * np.pi * 220 * t)
        rate = summarize(AudioClip.from_samples(sr, x)).speaking_rate
        assert rate == pytest.approx(2.0, abs=0.5)

    def test_silence_zero(self):
        assert summarize(silence_clip()).speaking_rate == 0.0


class TestEncodeStyle:
    def test_220_sine_component0(self):
        style = encode_style(sine_clip(220.0, duration_s=2.0))
        assert abs(style.values[0] - 0.44) <= 0.01

    def test_silence_components(self):
        style = encode_style(silence_clip())
        assert style.values[0] == 0.0
        assert style.values[7] == 0.0

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            encode_style(AudioClip.from_samples(16000, np.zeros(0)))

    def test_deterministic(self):
        clip = noise_clip(seed=9)
        assert encode_style(clip).values == encode_style(clip).values

    @settings(max_examples=20, deadline=None)
    @given(freq=st.floats(80, 400), amp=st.floats(0.05, 0.9), seed=st.integers(0, 50))
    def test_components_bounded(self, freq, amp, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(SR // 2) / SR
        x = np.clip(amp * np.sin(2 * np.pi * freq * t)
                    + 0.05 * rng.standard_normal(t.size), -1, 1)
        style = encode_style(AudioClip.from_samples(SR, x))
        assert all(0.0 <= v <= 1.3 for v in style.values)


class TestAcousticEmbedding:
    def test_unit_norm(self):
        for clip in (sine_clip(220.0), noise_clip(), silence_clip()):
            assert np.linalg.norm(acoustic_embedding(clip)) == pytest.approx(1.0, abs=1e-6)

    def test_self_similarity(self):
        clip = sine_clip(220.0)
        e = acoustic_embedding(clip)
        assert float(e @ acoustic_embedding(clip)) == pytest.approx(1.0, abs=1e-12)

    def test_octave_distinguishable(self):
        e1 = acoustic_embedding(sine_clip(220.0))
        e2 = acoustic_embedding(sine_clip(440.0))
        assert float(e1 @ e2) < 0.99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            acoustic_embedding(AudioClip.from_samples(16000, np.zeros(0)))


class TestSummarize:
    def test_duration(self):
        clip = AudioClip.from_samples(16000, np.zeros(160000))
        assert summarize(clip).duration_s == 10.0

    def test_matches_individual_ops(self):
        clip = sine_clip(220.0)
        s = summarize(clip)
        f0, voiced = pitch_track(clip)
        rms = analyze(clip).rms
        e_mean, e_std = float(np.mean(rms)), float(np.std(rms))
        assert s.pitch_mean == pytest.approx(float(np.mean(f0[voiced])))
        assert s.energy_mean == e_mean
        assert s.energy_std == e_std
        assert s.hnr_db == hnr(analyze(clip))
        assert s.voiced_fraction == float(np.mean(voiced))

    def test_empty_all_zero(self):
        s = summarize(AudioClip.from_samples(16000, np.zeros(0)))
        assert s.duration_s == 0.0 and s.pitch_mean == 0.0


class TestScalingInvariants:
    def test_pitch_invariant_under_gain(self):
        base = sine_clip(220.0, amplitude=0.2)
        scaled = AudioClip.from_samples(base.sample_rate, 3.0 * base.samples)
        f0a, va = pitch_track(base)
        f0b, vb = pitch_track(scaled)
        both = va & vb
        assert np.allclose(f0a[both], f0b[both])

    def test_hop_shift_preserves_interior(self):
        clip = sine_clip(220.0)
        hop = hop_len(clip.sample_rate)
        shifted = AudioClip.from_samples(clip.sample_rate,
                                         np.concatenate([np.zeros(2 * hop), clip.samples]))
        f0a, va = pitch_track(clip)
        f0b, vb = pitch_track(shifted)
        # interior frames of the original appear (shifted by 2) in the padded track
        assert np.allclose(f0a[va][:-3], f0b[2:][vb[2:]][:len(f0a[va]) - 3], atol=1e-6)


@st.composite
def nccf_clips(draw):
    """Sines, harmonic mixes, noise, silence and sines switched on and off, with
    lengths from under one frame to a few frames past 16- and 32-frame block edges."""
    sr = draw(st.sampled_from([8000, 16000]))
    n_frame, n_hop = frame_len(sr), hop_len(sr)
    n_frames = draw(st.sampled_from([0, 1, 2, 31, 32, 33, 63, 64, 65, 70]))
    extra = draw(st.integers(0, n_hop - 1))
    n = (draw(st.integers(1, n_frame - 1)) if n_frames == 0
         else n_frame + (n_frames - 1) * n_hop + extra)
    t = np.arange(n) / sr
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["sine", "harmonics", "noise", "silence", "gated"]))
    f0 = draw(st.floats(60.0, 480.0))
    amp = draw(st.floats(0.01, 0.9))
    if kind == "sine":
        x = amp * np.sin(2 * np.pi * f0 * t + draw(st.floats(0.0, 6.28)))
    elif kind == "harmonics":
        weights = rng.uniform(0.0, 1.0, size=draw(st.integers(2, 6)))
        x = sum(w * np.sin(2 * np.pi * (k + 1) * f0 * t) for k, w in enumerate(weights))
        x = amp * x / np.sum(weights) + draw(st.floats(0.0, 0.2)) * amp * rng.standard_normal(n)
    elif kind == "noise":
        x = amp * rng.standard_normal(n)
    elif kind == "silence":
        x = np.zeros(n)
    else:  # a sine switched on and off: digital silence inside active frames
        gate = np.repeat(rng.uniform(size=n // 997 + 1) > 0.4, 997)[:n]
        x = amp * np.sin(2 * np.pi * f0 * t) * gate
    return AudioClip.from_samples(sr, np.clip(x, -1.0, 1.0))


def _assert_matches_oracle(clip):
    """The clip's track equals the per-frame loop's: identical voicing and
    integer lags, f0 and peak within 1e-9.  Returns the active frames."""
    sr = clip.sample_rate
    base, f0, peak, voiced = nccf_track_brute(clip.samples, sr, frame_len(sr), hop_len(sr))
    features = analyze(clip)
    assert np.array_equal(features.voiced, voiced)
    np.testing.assert_allclose(features.f0, f0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(features.peak, peak, rtol=0, atol=1e-9)
    frames = acoustics._frames(clip.samples, frame_len(sr), hop_len(sr))
    active = np.flatnonzero(features.rms[:len(base)] > acoustics.SILENCE_FLOOR_RMS)
    fast_base, _, _ = acoustics._nccf_peaks(frames, active, max(2, sr // 500), math.ceil(sr / 50))
    assert np.array_equal(fast_base, base[active])
    assert not np.any(base[np.setdiff1d(np.arange(len(base)), active)])
    return active


class TestBatchedNccfMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(clip=nccf_clips())
    def test_matches_per_frame_loop(self, clip):
        _assert_matches_oracle(clip)


class TestSummaryMatchesHelpers:
    """The summary and the style equal, bit for bit, their assembly from one
    helper per feature (`tests/oracles.py`), over the NCCF property's clips."""

    @settings(max_examples=60, deadline=None)
    @given(clip=nccf_clips())
    def test_style_and_summary(self, clip):
        features = analyze(clip)
        assert asdict(summarize(clip)) == summarize_helpers(features, clip.duration_seconds)
        assert encode_style(clip).values == encode_style_helpers(features, clip.duration_seconds)


def _switched_sine(n_seconds, sr=SR, f0=180.0):
    """A harmonic tone with digital-silence gaps of 7 to 93 frames, which
    the silence floor drops, so each block of active frames spans gaps."""
    rng = np.random.default_rng(4)
    t = np.arange(int(n_seconds * sr)) / sr
    x = 0.3 * np.sin(2 * np.pi * f0 * t) + 0.1 * np.sin(2 * np.pi * 3 * f0 * t)
    x += 0.01 * rng.standard_normal(t.size)
    gate, edge, on = np.zeros(t.size, bool), 0, True
    while edge < t.size:
        span = int(rng.integers(7, 94)) * hop_len(sr) + int(rng.integers(0, hop_len(sr)))
        gate[edge:edge + span] = on
        edge, on = edge + span, not on
    return AudioClip.from_samples(sr, np.clip(x * gate, -1.0, 1.0))


class TestNccfBlocks:
    def test_gaps_across_many_blocks(self):
        clip = _switched_sine(12.0)
        active = _assert_matches_oracle(clip)
        blocks = [active[s:s + acoustics.NCCF_BLOCK_FRAMES]
                  for s in range(0, len(active), acoustics.NCCF_BLOCK_FRAMES)]
        assert sum(bool(np.any(np.diff(rows) > 1)) for rows in blocks) >= 10

    def test_exact_correlation_fallback(self, monkeypatch):
        """A frame that the tone leaves part way has lags whose energy is
        exactly 0, so equal neighbouring r put its pick in doubt and it is
        correlated exactly."""
        exact = []
        correlate = np.correlate
        monkeypatch.setattr(np, "correlate", lambda *args, **kwargs:
                            exact.append(1) or correlate(*args, **kwargs))
        clip = _switched_sine(1.0)
        analyze(clip)
        assert exact
        monkeypatch.undo()
        _assert_matches_oracle(clip)


class TestBlockwisePasses:
    """The block-wise passes give the bits of the whole-clip forms."""

    @pytest.mark.parametrize("n_frames", [0, 1, 31, 32, 33, 65, 700])
    def test_frame_rms_and_embedding(self, n_frames):
        sr = SR
        n = frame_len(sr) + (n_frames - 1) * hop_len(sr) + 17 if n_frames else 250
        clip = noise_clip(n / sr) if n_frames % 2 else sine_clip(190.0, n / sr)
        frames = acoustics._frames(clip.samples, frame_len(sr), hop_len(sr))
        assert np.array_equal(acoustics.frame_rms(clip.samples, sr),
                              np.sqrt(np.mean(frames ** 2, axis=1)))
        assert np.array_equal(acoustic_embedding(clip),
                              acoustic_embedding_whole(clip.samples, sr))


class TestWorkingMemory:
    """Each per-clip kernel holds the clip's floats and fixed-size blocks:
    its traced peak past its input, as a multiple of a 60 s clip's float64
    bytes, stays under a bound that the whole-clip forms (6.0x, 3.75x and
    6.0x) exceed.  Synthesis also quantizes chunk by chunk: a whole-clip
    `to_pcm` peaks at 2.25x."""

    TEXT = " ".join(["word"] * 180)  # 60 s at 3 tokens per second
    STYLES = (prosodic([0.4, 0.2, 0.2, 0.05, 0.7, 0.15, 0.5, 0.9]), acoustic([0.5] * 8))

    @pytest.fixture(scope="class")
    def long_clip(self):
        clip = ToySynthesizer().synthesize(self.TEXT, *self.STYLES)
        assert len(clip.pcm) == 60 * SR
        return clip

    @pytest.mark.parametrize("kernel, bound", [
        (lambda clip: ToySynthesizer().synthesize(TestWorkingMemory.TEXT,
                                                  *TestWorkingMemory.STYLES), 1.5),
        (analyze, 2.5),
        (acoustic_embedding, 1.5)], ids=["synthesize", "analyze", "acoustic_embedding"])
    def test_extra_memory(self, long_clip, kernel, bound):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernel(long_clip)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert extra / (8 * len(long_clip.pcm)) < bound


class TestAnalyze:
    def test_read_only(self):
        features = analyze(sine_clip(220.0))
        for array in (features.rms, features.f0, features.peak, features.voiced):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_one_analysis_per_clip(self, monkeypatch):
        """encode_style and summarize share the clip's cached summary."""
        calls = []
        core = acoustics._nccf_peaks
        monkeypatch.setattr(acoustics, "_nccf_peaks",
                            lambda *args: calls.append(1) or core(*args))
        a, b = sine_clip(220.0), sine_clip(220.0)
        encode_style(a)
        summarize(a)
        assert len(calls) == 1
        summarize(b)  # equal samples, another clip: analysed afresh
        assert len(calls) == 2
