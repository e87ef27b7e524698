"""Independent brute-force reference implementations used to pin the
package's metric and simulation code.  Everything here is deliberately
slow and literal; no code is shared with the package under test."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np


def edit_distance_brute(ref, hyp):
    """Levenshtein over word lists via the full DP table (no rolling rows)."""
    n, m = len(ref), len(hyp)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(d[i - 1][j] + 1,
                          d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]))
    return d[n][m]


def bleu_brute(refs, hyp, max_n=4):
    """Literal BLEU: clipped precisions, add-one smoothing when a precision
    is zero, closest-reference (ties -> shorter) brevity penalty."""
    hyp_words = hyp.split()
    if not hyp_words:
        return 0.0
    ref_lists = [r.split() for r in refs]
    logs = []
    for n in range(1, max_n + 1):
        grams = [tuple(hyp_words[i:i + n]) for i in range(len(hyp_words) - n + 1)]
        if not grams:
            continue
        hyp_counts = Counter(grams)
        clipped = 0
        for gram, count in hyp_counts.items():
            best = 0
            for rl in ref_lists:
                rc = sum(1 for i in range(len(rl) - n + 1) if tuple(rl[i:i + n]) == gram)
                best = max(best, rc)
            clipped += min(count, best)
        total = len(grams)
        p = (clipped + 1) / (total + 1) if clipped == 0 else clipped / total
        logs.append(math.log(p))
    if not logs:
        return 0.0
    geo = math.exp(sum(logs) / len(logs))
    c = len(hyp_words)
    r = min((abs(len(rl) - c), len(rl)) for rl in ref_lists)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * geo


def lcs_brute(a, b):
    """Recursive LCS with memoization."""
    memo = {}

    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if (i, j) not in memo:
            if a[i] == b[j]:
                memo[(i, j)] = 1 + go(i + 1, j + 1)
            else:
                memo[(i, j)] = max(go(i + 1, j), go(i, j + 1))
        return memo[(i, j)]

    return go(0, 0)


def rouge_l_brute(ref, hyp):
    r, h = ref.split(), hyp.split()
    if not r or not h:
        return 0.0
    lcs = lcs_brute(r, h)
    if lcs == 0:
        return 0.0
    p = lcs / len(h)
    rr = lcs / len(r)
    return 100.0 * 2 * p * rr / (p + rr)


def meteor_brute(ref, hyp):
    """Exact-match METEOR; the chunk-minimal alignment is found by full
    enumeration of occurrence assignments (exponential, small inputs only)."""
    ref_words, hyp_words = ref.split(), hyp.split()
    if not ref_words or not hyp_words:
        return 0.0
    ref_counts = Counter(ref_words)
    hyp_counts = Counter(hyp_words)
    quota = {w: min(hyp_counts[w], ref_counts[w]) for w in hyp_counts}
    matches = sum(quota.values())
    if matches == 0:
        return 0.0

    ref_pos = {}
    for j, w in enumerate(ref_words):
        ref_pos.setdefault(w, []).append(j)

    # choose which hyp occurrences participate, then assign ref positions
    best_chunks = [matches]

    def assign(i, remaining, used, pairs):
        if sum(remaining.values()) == 0:
            ordered = sorted(pairs)  # by hyp index
            chunks = 0
            prev = None
            for hi, rj in ordered:
                if prev is None or rj != prev + 1:
                    chunks += 1
                prev = rj
            best_chunks[0] = min(best_chunks[0], chunks)
            return
        if i == len(hyp_words):
            return
        w = hyp_words[i]
        if remaining.get(w, 0) > 0:
            for j in ref_pos[w]:
                if j not in used:
                    remaining[w] -= 1
                    used.add(j)
                    assign(i + 1, remaining, used, pairs + [(i, j)])
                    used.discard(j)
                    remaining[w] += 1
        # leaving this occurrence unmatched is legal if enough later
        # occurrences of w remain to fill the quota
        later = sum(1 for k in range(i + 1, len(hyp_words)) if hyp_words[k] == w)
        if later >= remaining.get(w, 0):
            assign(i + 1, remaining, used, pairs)

    assign(0, dict(quota), set(), [])
    chunks = best_chunks[0]
    p = matches / len(hyp_words)
    r = matches / len(ref_words)
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    penalty = 0.5 * (chunks / matches) ** 3
    return 100.0 * f_mean * (1.0 - penalty)


def greedy_embed_brute(ref, hyp, embedder):
    ref_words, hyp_words = ref.split(), hyp.split()
    if not ref_words or not hyp_words:
        return 0.0
    p_scores = []
    for hw in hyp_words:
        hv = embedder(hw)
        p_scores.append(max(float(np.dot(hv, embedder(rw))) for rw in ref_words))
    r_scores = []
    for rw in ref_words:
        rv = embedder(rw)
        r_scores.append(max(float(np.dot(rv, embedder(hw))) for hw in hyp_words))
    p = sum(p_scores) / len(p_scores)
    r = sum(r_scores) / len(r_scores)
    if p + r <= 0:
        return 0.0
    return 100.0 * 2 * p * r / (p + r)


def pearson_brute(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def cosine_brute(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def stall_free_delay_brute(production, out_dur, grid=4001):
    """Bisect for the smallest playback start without underrun, checking a
    dense time grid plus every production breakpoint (where the piecewise-
    linear deficit attains its extremes).  production: (wall, audio) pairs."""
    pts = sorted(production)
    walls = np.array([w for w, _ in pts])
    audio = np.array([a for _, a in pts])
    uniform = np.linspace(0.0, out_dur, grid)

    def start_ok(d):
        ts = np.concatenate([uniform, np.clip(walls - d, 0.0, out_dur)])
        return bool(np.all(np.interp(d + ts, walls, audio) >= ts - 1e-9))

    lo, hi = 0.0, float(walls[-1])
    if not start_ok(hi):
        raise ValueError("production never catches up")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if start_ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def perplexity_of_table(table, conversations):
    """Per-token perplexity of a bigram table over every turn."""
    log_sum = 0.0
    count = 0
    for conv in conversations:
        for turn in conv.turns:
            tokens = turn.text.split()
            if not tokens:
                continue
            seq = ["<s>"] + tokens + ["</s>"]
            for prev, nxt in zip(seq, seq[1:]):
                log_sum += math.log(table.probability(prev, nxt))
                count += 1
    return math.exp(-log_sum / count)


def _nccf_peak_brute(frame, lag_min, lag_max):
    """Refined (integer lag, lag, peak) of one frame's normalized
    cross-correlation within [lag_min, lag_max]: a direct np.correlate,
    octave-cost local-maximum pick, then parabolic refinement."""
    n = len(frame)
    lag_max = min(lag_max, n - 2)
    if lag_max <= lag_min:
        return 0, 0.0, 0.0
    full = np.correlate(frame, frame, mode="full")
    num = full[n - 1 + lag_min - 1: n - 1 + lag_max + 2]  # lags lag_min-1 .. lag_max+1
    sq = frame ** 2
    csum = np.concatenate(([0.0], np.cumsum(sq)))
    lags = np.arange(lag_min - 1, lag_max + 2)
    e_head = csum[n - lags]
    e_tail = csum[n] - csum[lags]
    denom = np.sqrt(e_head * e_tail)
    r = np.where(denom > 1e-20, num / np.maximum(denom, 1e-20), 0.0)
    band = r[1:-1]
    band_lags = lags[1:-1].astype(np.float64)
    is_max = (band >= np.roll(r, 1)[1:-1]) & (band >= np.roll(r, -1)[1:-1])
    candidates = np.flatnonzero(is_max)
    if candidates.size:
        scores = band[candidates] - 0.03 * np.log2(band_lags[candidates] / lag_min)
        i = int(candidates[np.argmax(scores)]) + 1
    else:
        i = int(np.argmax(band)) + 1
    r0, rm, rp = r[i], r[i - 1], r[i + 1]
    lag = float(lags[i])
    peak = float(r0)
    curv = rm - 2.0 * r0 + rp
    if curv < 0:
        shift = 0.5 * (rm - rp) / curv
        if -1.0 < shift < 1.0:
            lag += shift
            peak = float(r0 - 0.25 * (rm - rp) * shift)
    return int(lags[i]), lag, min(peak, 1.0 - 1e-12)


def nccf_track_brute(samples, sample_rate, frame_len, hop_len, f_min=50.0, f_max=500.0):
    """Per-frame (integer lag, f0, peak, voiced) from a frame-by-frame NCCF
    loop.  Frames with RMS at or below 1e-4 are skipped (all 0, unvoiced);
    a frame is voiced when its refined peak exceeds 0.30.  A clip shorter
    than one frame has an empty track."""
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = 0 if len(samples) < frame_len else 1 + (len(samples) - frame_len) // hop_len
    lag_min = max(2, int(math.floor(sample_rate / f_max)))
    lag_max = int(math.ceil(sample_rate / f_min))
    base = np.zeros(n_frames, dtype=int)
    f0 = np.zeros(n_frames)
    peak = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    for k in range(n_frames):
        frame = samples[k * hop_len: k * hop_len + frame_len]
        rms = math.sqrt(float(np.mean(frame ** 2)))
        if rms <= 1e-4:
            continue
        base[k], lag, peak[k] = _nccf_peak_brute(frame, lag_min, lag_max)
        if lag > 0:
            f0[k] = sample_rate / lag
        voiced[k] = peak[k] > 0.30
    return base, f0, peak, voiced


def _voiced_pitch_helper(features):
    if not np.any(features.voiced):
        return 0.0, 0.0, 0.0
    f0 = features.f0[features.voiced]
    return float(np.mean(f0)), float(np.std(f0)), float(np.mean(features.voiced))


def _energy_stats_helper(features):
    rms = features.rms
    if rms.size == 0:
        return 0.0, 0.0
    return float(np.mean(rms)), float(np.std(rms))


def _hnr_helper(features):
    if not np.any(features.voiced):
        return -20.0
    r = np.clip(features.peak[features.voiced], 1e-12, 1.0 - 1e-12)
    per_frame = np.clip(10.0 * np.log10(r / (1.0 - r)), -20.0, 40.0)
    return float(np.clip(np.mean(per_frame), -20.0, 40.0))


def _speaking_rate_helper(features, duration_s):
    """Energy-peak events per second, capped at 20: a new peak counts only
    after the RMS envelope dips below 45% of its loudest frame."""
    if duration_s <= 0:
        return 0.0
    rms = features.rms
    if rms.size < 3:
        count = 1 if rms.size and rms.max() > 1e-4 else 0
    elif rms.max() <= 1e-4:
        count = 0
    else:
        top, count, armed = rms.max(), 0, True
        for i in range(1, len(rms) - 1):
            if not armed and rms[i] < 0.45 * top:
                armed = True
            if armed and rms[i] >= rms[i - 1] and rms[i] > rms[i + 1] and rms[i] > 0.5 * top:
                count += 1
                armed = False
        count = max(count, 1)
    return min(count / duration_s, 20.0)


def summarize_helpers(features, duration_s):
    """The acoustic summary as a dict, assembled field by field from one
    feature helper each over a clip's per-frame analysis `features`."""
    if duration_s == 0:
        return dict.fromkeys(("pitch_mean", "pitch_std", "energy_mean", "energy_std", "hnr_db",
                              "duration_s", "voiced_fraction", "speaking_rate"), 0.0)
    pitch_mean, pitch_std, voiced_fraction = _voiced_pitch_helper(features)
    e_mean, e_std = _energy_stats_helper(features)
    return {"pitch_mean": pitch_mean, "pitch_std": pitch_std, "energy_mean": e_mean,
            "energy_std": e_std, "hnr_db": _hnr_helper(features), "duration_s": duration_s,
            "voiced_fraction": voiced_fraction,
            "speaking_rate": _speaking_rate_helper(features, duration_s)}


def encode_style_helpers(features, duration_s):
    """The 8 prosodic style values, each from its feature helper:
    [pitch_mean/500, min(pitch_std, 130)/100, energy_mean, energy_std,
    (hnr+20)/60, rate/20, log(1+min(dur, 60))/log(61), voiced_fraction]."""
    pitch_mean, pitch_std, voiced_fraction = _voiced_pitch_helper(features)
    pitch_std = min(pitch_std, 1.3 * 100.0)
    e_mean, e_std = _energy_stats_helper(features)
    dur = min(duration_s, 60.0)
    return (pitch_mean / 500.0, pitch_std / 100.0, e_mean, e_std,
            (_hnr_helper(features) + 20.0) / 60.0,
            _speaking_rate_helper(features, duration_s) / 20.0,
            math.log1p(dur) / math.log1p(60.0), voiced_fraction)


def acoustic_embedding_whole(samples, sample_rate, dim=16):
    """The 16 mel-band embedding from the mean power spectrum of every
    Hann-windowed 25 ms frame (10 ms hop) at once; a clip shorter than one
    frame is one zero-padded frame."""
    n_frame = int(round(sample_rate * 0.025))
    n_hop = int(round(sample_rate * 0.010))
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < n_frame:
        frames = np.zeros((1, n_frame))
        frames[0, :len(samples)] = samples
    else:
        frames = np.stack([samples[k:k + n_frame]
                           for k in range(0, len(samples) - n_frame + 1, n_hop)])
    power = np.mean(np.abs(np.fft.rfft(frames * np.hanning(n_frame), axis=1)) ** 2, axis=0)
    freqs = np.fft.rfftfreq(n_frame, d=1.0 / sample_rate)
    mel_top = 2595.0 * np.log10(1.0 + sample_rate / 2.0 / 700.0)
    mels = np.linspace(2595.0 * np.log10(1.0 + 50.0 / 700.0), mel_top, dim + 1)
    edges = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    bands = np.array([power[(freqs >= lo) & (freqs < hi)].sum()
                      for lo, hi in zip(edges[:-1], edges[1:])])
    bands = np.ones(dim) if bands.sum() <= 1e-30 else bands / bands.sum()
    return bands / np.linalg.norm(bands)


def _pitch_contour_brute(rng, n, sr, mean_hz, std_hz):
    """Mean-reverting random walk at a 100 Hz control rate, interpolated."""
    ctrl_hz = 100.0
    n_ctrl = max(2, int(math.ceil(n / sr * ctrl_hz)) + 1)
    # slow walk: within one analysis frame the pitch is effectively
    # constant, so the injected noise floor alone sets the measured HNR
    rho = math.exp(-1.0 / (ctrl_hz * 8.0))
    innov = std_hz * math.sqrt(1.0 - rho * rho)
    walk = np.empty(n_ctrl)
    walk[0] = mean_hz + std_hz * rng.standard_normal()
    for i in range(1, n_ctrl):
        walk[i] = mean_hz + rho * (walk[i - 1] - mean_hz) + innov * rng.standard_normal()
    walk = np.clip(walk, 60.0, 480.0)
    ctrl_t = np.arange(n_ctrl) / ctrl_hz
    return np.interp(np.arange(n) / sr, ctrl_t, walk)


def synthesize_brute(text, prosodic, acoustic):
    """The toy synthesizer's samples, one `np.sin` per harmonic and one
    scalar draw per pitch control point.  It shares the synthesizer's
    constants, its seed derivation and the framing of `acoustics._frames`,
    which define what is rendered, not how fast."""
    from styledialog import acoustics
    from styledialog.components import (ENVELOPE_FLOOR, HARMONIC_BASE, MIN_TOKEN_RATE,
                                        SYNTH_SAMPLE_RATE, _synthesis_seed)
    sr = SYNTH_SAMPLE_RATE
    tokens = text.split()
    p = prosodic.values
    rate = max(MIN_TOKEN_RATE, p[5] * acoustics.RATE_CAP_PER_S)
    duration = len(tokens) / rate
    n = int(round(duration * sr))
    rng = np.random.default_rng(_synthesis_seed(text, prosodic, acoustic))

    f0 = _pitch_contour_brute(rng, n, sr,
                              mean_hz=float(np.clip(p[0] * acoustics.PITCH_NORM_HZ, 70.0, 450.0)),
                              std_hz=float(np.clip(p[1] * acoustics.PITCH_STD_NORM_HZ, 0.0, 40.0)))
    phase = 2.0 * math.pi * np.cumsum(f0) / sr

    weights = [HARMONIC_BASE[0]]
    for k in range(1, len(HARMONIC_BASE)):
        a = abs(acoustic.values[k - 1]) if k - 1 < len(acoustic.values) else 0.0
        weights.append(HARMONIC_BASE[k] * (0.25 + min(a, 1.0)))
    harmonic = np.zeros(n)
    for k, w in enumerate(weights, start=1):
        harmonic += w * np.sin(k * phase)

    hnr_db = p[4] * acoustics.HNR_SPAN_DB + acoustics.HNR_DB_MIN
    harmonic_power = sum(w * w for w in weights) / 2.0
    sigma = math.sqrt(harmonic_power * 10.0 ** (-hnr_db / 10.0))
    signal = harmonic + sigma * rng.standard_normal(n)

    # one raised-cosine bump per token so the rate is recoverable from
    # the energy envelope
    t = np.arange(n) / sr
    u = (t * rate) % 1.0
    envelope = ENVELOPE_FLOOR + (1.0 - ENVELOPE_FLOOR) * np.sin(math.pi * u) ** 2
    signal *= envelope

    # scale so the mean frame RMS matches the requested energy component
    target = max(p[2], 1e-3)
    frames = acoustics._frames(signal, acoustics.frame_len(sr), acoustics.hop_len(sr))
    mean_rms = float(np.mean(np.sqrt(np.mean(frames ** 2, axis=1))))
    if mean_rms > 0:
        signal *= target / mean_rms
    # hard-limit stray noise peaks; clipping the tail barely moves the
    # frame RMS, whereas rescaling the whole clip would break the energy
    # component of the style round trip
    return np.clip(signal, -0.99, 0.99)


def build_prompt_emit(crop, context, variant, audio_path):
    """The prompt as a string of emits that track each offset as they go:
    (text, ((offset, ref_kind, ref_id), ...), output offset, token count).
    `variant` is a prompt variant's value; a missing reference style raises
    KeyError."""
    in_token, out_token = "<|extra_123|>", "<|extra_124|>"
    spk_in = crop.incoming_turn.speaker
    spk_out = crop.target_turn.speaker
    speakers = [spk_in]
    for entry in context.entries:
        if entry.speaker not in speakers:
            speakers.append(entry.speaker)
    if spk_out not in speakers:
        speakers.append(spk_out)
    for speaker in speakers:
        if speaker not in context.reference_styles:
            raise KeyError(f"no reference style for speaker {speaker!r}")

    with_styles = variant != "no_style_context"
    parts, slots = [], []
    length = 0

    def emit(text):
        nonlocal length
        parts.append(text)
        length += len(text)

    def emit_style_slot(ref_kind, ref_id):
        slots.append((length, ref_kind, ref_id))
        emit(in_token)

    if variant != "no_audio_input":
        emit(f"Audio 1:<audio>{audio_path}</audio>\n\n")
    emit(f"This is the voice of the {spk_in} last speaking. There is a conversation \namong ")
    for i, speaker in enumerate(speakers):
        if i:
            emit(" ")
        if with_styles:
            emit(f"{speaker}: STYLE: ")
            emit_style_slot("reference", speaker)
        else:
            emit(speaker)
    emit(". \nHere is some context: \n\n")

    def emit_context_line(speaker, text, ref_kind, ref_id):
        emit(f"{speaker}: ")
        if with_styles:
            emit("STYLE: ")
            emit_style_slot(ref_kind, ref_id)
            emit(" ")
        emit(f"TEXT: {text}\n")

    for i, entry in enumerate(context.entries):
        emit_context_line(entry.speaker, entry.text, "context", i)
    if variant in ("no_audio_input", "asr_plus_style"):
        emit_context_line(spk_in, crop.incoming_turn.text, "incoming", len(context.entries))
    emit(f"\nTry to recognize what {spk_in} just said from the audio, \n"
         f"and generate the style and text of the next speaker {spk_out}. \n"
         f"Be creative and avoid repeated words and sentences. \nSTYLE: ")
    output_offset = length
    emit(f"{out_token} TEXT:")
    text = "".join(parts)
    return text, tuple(slots), output_offset, len(text.split())
