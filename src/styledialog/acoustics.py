"""DSP feature extraction: pitch, energy, harmonicity, rate, and the toy
style encoder / speaker embedding.

`analyze` frames a clip once and computes per-frame RMS, f0, NCCF peak and
voicing; `summarize` projects that one pass onto every per-clip feature, and
the style is that summary rescaled.
Pitch and harmonicity come from the normalized cross-correlation (NCCF) of
each frame within the lag band of the search range, one FFT autocorrelation
per block of frames, with parabolic peak refinement.  A frame is voiced
when the refined peak exceeds 0.30 and the frame RMS clears the silence
floor (1e-4, about -80 dBFS).  Both constants are deliberate fixed defaults
so every downstream test is deterministic.

Memory: the frames are a strided view of the clip's float samples, and
every per-frame pass copies a block of them at a time: `BLOCK_FRAMES` for
the RMS and the embedding's power spectrum, `NCCF_BLOCK_FRAMES` of the
frames above the silence floor for the NCCF.  So a clip's analysis holds
its own samples plus fixed-size blocks, never a copy of the 2.5x-overlapped
frames, and each block gives the bits one whole-clip pass would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dialog import AudioClip, StyleVector

SILENCE_FLOOR_RMS = 1e-4
VOICING_THRESHOLD = 0.30
HNR_DB_MIN = -20.0
HNR_DB_MAX = 40.0

# Style normalization spans, chosen so every component is O(1).
PITCH_NORM_HZ = 500.0
PITCH_STD_NORM_HZ = 100.0
HNR_SPAN_DB = 60.0
RATE_CAP_PER_S = 20.0
DURATION_CAP_S = 60.0

# One analysis front end: every framing and the pitch search use these.
FRAME_MS = 25.0
HOP_MS = 10.0
F_MIN_HZ = 50.0
F_MAX_HZ = 500.0

EMBED_DIM = 16
# frames per block of the block-wise passes, which bounds their memory; an
# NCCF frame takes a zero-padded FFT over twice its length, so its blocks are smaller
BLOCK_FRAMES = 32
NCCF_BLOCK_FRAMES = 16


def frame_len(sample_rate: int) -> int:
    """Samples per analysis frame (FRAME_MS) at `sample_rate`."""
    return max(1, int(round(sample_rate * FRAME_MS / 1000.0)))


def hop_len(sample_rate: int) -> int:
    """Samples between analysis frame starts (HOP_MS) at `sample_rate`."""
    return max(1, int(round(sample_rate * HOP_MS / 1000.0)))


def check_sample_rate(sample_rate: int) -> None:
    """Raise ValueError below 2 * F_MAX_HZ, where the pitch band passes Nyquist."""
    if sample_rate < 2 * F_MAX_HZ:
        raise ValueError(f"sample rate {sample_rate} Hz is below {2 * F_MAX_HZ:g} Hz, "
                         f"twice the top of the pitch band")


@dataclass(frozen=True)
class AcousticSummary:
    """Every per-clip feature: the row of acoustic correlation reports, and
    the prosodic style before its rescaling."""

    pitch_mean: float
    pitch_std: float
    energy_mean: float
    energy_std: float
    hnr_db: float
    duration_s: float
    voiced_fraction: float
    speaking_rate: float


def _frames(samples: np.ndarray, frame_len: int, hop_len: int) -> np.ndarray:
    """(n_frames, frame_len) view; a clip shorter than one frame yields one
    zero-padded frame so short clips still have defined energy."""
    n = len(samples)
    if n < frame_len:
        padded = np.zeros((1, frame_len))
        padded[0, :n] = samples
        return padded
    return np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::hop_len]


def frame_rms(samples: np.ndarray, sample_rate: int) -> np.ndarray:
    """RMS of each analysis frame of `samples`, squared a block of frames
    at a time, so the overlapping frames are never copied whole."""
    frames = _frames(samples, frame_len(sample_rate), hop_len(sample_rate))
    rms = np.empty(len(frames))
    for start in range(0, len(frames), BLOCK_FRAMES):
        rows = slice(start, start + BLOCK_FRAMES)
        rms[rows] = np.sqrt(np.mean(frames[rows] ** 2, axis=1))
    return rms


def _pick(r: np.ndarray, octave_cost: np.ndarray, tol: np.ndarray):
    """Each row's peak column in r (lags of the band plus one each side): the
    best local maximum after an octave cost, which keeps subharmonics from
    winning, else the band maximum; and the rows whose pick an error below
    `tol` (a column, one bound per row) in a difference of two r could sway."""
    step = np.diff(r, axis=1)  # r[tau + 1] - r[tau]
    band = r[:, 1:-1]
    is_max = (step[:, :-1] >= 0) & (step[:, 1:] <= 0)
    scores = np.where(is_max, band - octave_cost, -2.0)  # -2 is below any score: |r| <= 1
    i = np.where(is_max.any(axis=1), scores.argmax(axis=1), band.argmax(axis=1)) + 1
    rivals = (scores > scores.max(axis=1, keepdims=True) - tol).sum(axis=1)
    return i, (np.abs(step) < tol).any(axis=1) | (rivals > 1)


def _nccf_block(padded: np.ndarray, n: int, lag_min: int, lag_max: int,
                octave_cost: np.ndarray):
    """(r, i): the NCCF of each row's first n samples at the lags
    [lag_min - 1, lag_max + 1], and each row's pick in it (`_pick`).  The
    rows are zero beyond n, up to an FFT size that leaves every lag used
    free of wrap.  Every array made here is freed on return, so a block's
    working set never outlives it."""
    nfft = padded.shape[1]
    cols = slice(lag_min - 1, lag_max + 2)
    block = padded[:, :n]
    csum = np.zeros((len(block), n + 1))
    np.cumsum(block ** 2, axis=1, out=csum[:, 1:])
    # sqrt of the energies of x[0 : n-tau] and of x[tau : n]
    head = csum[:, n - lag_min + 1:n - lag_max - 2:-1]
    denom = np.maximum(np.sqrt(head * (csum[:, n:] - csum[:, cols])), 1e-20)
    live = denom > 1e-20
    # numerator(tau) = sum_t x[t] x[t+tau], from the power spectrum
    spectrum = np.fft.rfft(padded, axis=1)
    power = spectrum.real ** 2
    power += spectrum.imag ** 2
    del spectrum  # before the inverse transform makes its output
    r = np.fft.irfft(power, nfft, axis=1)[:, cols] / denom
    r[~live] = 0.0
    # the FFT's error in a numerator stays far below 1e-13 of the frame energy, so
    # an r is off by at most that over the smallest live denominator;
    # rows whose pick that could sway get the exact correlation instead
    smallest = np.min(denom, axis=1, keepdims=True, where=live, initial=np.inf)
    i, doubt = _pick(r, octave_cost, 2.0 * (1e-13 * csum[:, n:] / smallest))
    for b in np.flatnonzero(doubt):
        exact = np.correlate(block[b], block[b], mode="full")[n + lag_min - 2:n + lag_max + 1]
        r[b] = np.where(live[b], exact / denom[b], 0.0)
        i[b] = _pick(r[b:b + 1], octave_cost, np.zeros((1, 1)))[0][0]
    return r, i


def _nccf_peaks(frames: np.ndarray, rows: np.ndarray, lag_min: int, lag_max: int):
    """(integer lag, refined lag, refined peak) of the NCCF within
    [lag_min, lag_max] of each frame `frames[rows]`, for a band that fits the
    frame, 2 <= lag_min < lag_max <= frame length - 2, as at every rate
    `check_sample_rate` admits.  The rows are gathered a block at a time
    into one zero-padded buffer, reused by every block."""
    n = frames.shape[1]
    base, lag, peak = np.zeros(len(rows), int), np.zeros(len(rows)), np.zeros(len(rows))
    octave_cost = 0.03 * np.log2(np.arange(lag_min, lag_max + 1) / lag_min)
    # kept a power of two: 729 points took 0.530 s against 0.552 s (medians, 125-clip analysis,
    # 2 CPUs) but were lower in only 7 of 12 alternating fresh-interpreter pairs: no gain shown
    padded = np.zeros((min(len(rows), NCCF_BLOCK_FRAMES), 1 << (n + lag_max).bit_length()))
    for start in range(0, len(rows), NCCF_BLOCK_FRAMES):
        out = slice(start, start + NCCF_BLOCK_FRAMES)
        m = len(rows[out])
        padded[:m, :n] = frames[rows[out]]
        r, i = _nccf_block(padded[:m], n, lag_min, lag_max, octave_cost)
        r0, rm, rp = np.take_along_axis(r, i[:, None] + np.array([0, -1, 1]), axis=1).T
        curv = rm - 2.0 * r0 + rp
        shift = 0.5 * (rm - rp) / np.where(curv < 0, curv, -1.0)  # used where curv < 0
        refine = (curv < 0) & (np.abs(shift) < 1.0)
        base[out] = lag_min - 1 + i
        lag[out] = base[out] + np.where(refine, shift, 0.0)
        peak[out] = np.minimum(np.where(refine, r0 - 0.25 * (rm - rp) * shift, r0), 1.0 - 1e-12)
    return base, lag, peak


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare
class ClipFeatures:
    """Read-only arrays, one entry per frame.  A clip shorter than one frame
    has one zero-padded `rms` frame and empty `f0`, `peak` and `voiced`."""

    rms: np.ndarray
    f0: np.ndarray
    peak: np.ndarray
    voiced: np.ndarray


def analyze(clip: AudioClip) -> ClipFeatures:
    """Per-frame RMS, f0, NCCF peak and voicing from one framing of the clip.
    Frames at or below the silence floor skip the NCCF: f0 and peak 0."""
    sr = clip.sample_rate
    check_sample_rate(sr)
    n_frame = frame_len(sr)
    samples = clip.samples
    rms = frame_rms(samples, sr)
    n_track = len(rms) if len(samples) >= n_frame else 0
    f0, peak = np.zeros(n_track), np.zeros(n_track)
    active = np.flatnonzero(rms[:n_track] > SILENCE_FLOOR_RMS)
    _, lag, peak[active] = _nccf_peaks(_frames(samples, n_frame, hop_len(sr)), active,
                                       max(2, int(math.floor(sr / F_MAX_HZ))),
                                       int(math.ceil(sr / F_MIN_HZ)))
    f0[active] = sr / lag
    voiced = peak > VOICING_THRESHOLD  # silent frames keep peak 0
    for array in (rms, f0, peak, voiced):
        array.flags.writeable = False
    return ClipFeatures(rms=rms, f0=f0, peak=peak, voiced=voiced)


def pitch_track(clip: AudioClip):
    """Per-frame (f0_hz, voiced) arrays. Shorter than one frame -> empty track."""
    features = analyze(clip)
    return features.f0, features.voiced


def hnr(features: ClipFeatures) -> float:
    """Mean over voiced frames of 10*log10(r/(1-r)), clamped to [-20, 40]."""
    if not np.any(features.voiced):
        return HNR_DB_MIN
    r = np.clip(features.peak[features.voiced], 1e-12, 1.0 - 1e-12)
    per_frame = np.clip(10.0 * np.log10(r / (1.0 - r)), HNR_DB_MIN, HNR_DB_MAX)
    return float(np.clip(np.mean(per_frame), HNR_DB_MIN, HNR_DB_MAX))


def _count_energy_peaks(rms: np.ndarray) -> int:
    """Syllable-proxy events: local RMS maxima gated by an interleaving valley.

    A new peak is only accepted after the envelope has dipped below 45% of
    the loudest frame, which keeps micro-ripple on a rising slope from
    double counting one syllable bump.
    """
    if rms.size < 3:
        return 1 if rms.max() > SILENCE_FLOOR_RMS else 0
    top = rms.max()
    if top <= SILENCE_FLOOR_RMS:
        return 0
    count = 0
    armed = True
    for i in range(1, len(rms) - 1):
        if not armed and rms[i] < 0.45 * top:
            armed = True
        if armed and rms[i] >= rms[i - 1] and rms[i] > rms[i + 1] and rms[i] > 0.5 * top:
            count += 1
            armed = False
    if count == 0:
        count = 1  # some audible energy but no interior maximum (monotone envelope)
    return count


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def acoustic_embedding(clip: AudioClip) -> np.ndarray:
    """L2-normalized band-energy ratios over 16 mel-spaced bands (50 Hz..Nyquist)."""
    n_frame = frame_len(clip.sample_rate)
    frames = _frames(clip.samples, n_frame, hop_len(clip.sample_rate))
    win = np.hanning(n_frame)
    # the mean power spectrum, a block of frames at a time: row 0 carries
    # the running sum, so the rows are added in frame order, as one axis-0
    # sum over every frame's spectrum would add them
    acc = np.zeros((BLOCK_FRAMES + 1, n_frame // 2 + 1))
    for start in range(0, len(frames), BLOCK_FRAMES):
        block = frames[start:start + BLOCK_FRAMES]
        acc[1:len(block) + 1] = np.abs(np.fft.rfft(block * win, axis=1)) ** 2
        acc[0] = np.sum(acc[:len(block) + 1], axis=0)
    power = acc[0] / len(frames)
    freqs = np.fft.rfftfreq(n_frame, d=1.0 / clip.sample_rate)
    edges = _mel_inv(np.linspace(_mel(50.0), _mel(clip.sample_rate / 2.0), EMBED_DIM + 1))
    bands = np.zeros(EMBED_DIM)
    for b in range(EMBED_DIM):
        mask = (freqs >= edges[b]) & (freqs < edges[b + 1])
        bands[b] = power[mask].sum()
    total = bands.sum()
    if total <= 1e-30:
        bands = np.ones(EMBED_DIM)  # silence: flat profile, still unit norm
    else:
        bands = bands / total
    return bands / np.linalg.norm(bands)


# one slot, keyed by identity, since both clip types are eq=False and frozen
# over read-only pcm: encode_style and summarize on one clip share its
# summary, so they analyse it, and make its float samples, once
@functools.lru_cache(maxsize=1)
def summarize(clip: AudioClip) -> AcousticSummary:
    """Every per-clip feature, from one `analyze`: mean and population std of
    voiced f0 (0s if unvoiced) and of frame RMS, `hnr`, duration, voiced fraction
    and energy-peak events per second, capped at RATE_CAP_PER_S."""
    duration = clip.duration_seconds
    features = analyze(clip)
    rms, voiced, f0 = features.rms, features.voiced, features.f0[features.voiced]
    pitch_mean = pitch_std = voiced_fraction = 0.0
    if f0.size:
        pitch_mean, pitch_std, voiced_fraction = (float(np.mean(f0)), float(np.std(f0)),
                                                  float(np.mean(voiced)))
    return AcousticSummary(pitch_mean, pitch_std, float(np.mean(rms)), float(np.std(rms)),
                           hnr(features), duration, voiced_fraction,
                           min(_count_energy_peaks(rms) / duration, RATE_CAP_PER_S))


def encode_style(clip: AudioClip) -> StyleVector:
    """Encode a clip into the 8-dim prosodic style vector: its summary, rescaled.

    Layout: [pitch_mean/500, pitch_std/100, energy_mean, energy_std,
    (hnr+20)/60, rate/20, log(1+dur)/log(61), voiced_fraction].  Silence
    yields zero pitch components and voiced_fraction 0.
    """
    s = summarize(clip)
    dur = min(s.duration_s, DURATION_CAP_S)
    # pitch_std is capped so its component stays within its documented bound
    # even when stray noise frames lock onto scattered pitches
    values = (s.pitch_mean / PITCH_NORM_HZ, min(s.pitch_std, 1.3 * PITCH_STD_NORM_HZ)
              / PITCH_STD_NORM_HZ, s.energy_mean, s.energy_std,
              (s.hnr_db - HNR_DB_MIN) / HNR_SPAN_DB, s.speaking_rate / RATE_CAP_PER_S,
              math.log1p(dur) / math.log1p(DURATION_CAP_S), s.voiced_fraction)
    return StyleVector(values=values, kind="prosodic")
