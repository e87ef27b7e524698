"""Deterministic toy components: a recognizer that reads a turn's own
transcript at a controllable WER, an oracle/markov responder that reads a
crop's target turn, and a harmonic synthesizer whose output can be
re-encoded into the style it was asked to render.

Component instances are immutable after construction; per-turn state flows
through the conversation context, which is what lets the scheduler run ASR
and style extraction in the background during playback.  Components carry
no cost model: `scheduler` alone turns their work into time.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import acoustics
from .dialog import AudioClip, Conversation, DialogCrop, StyleVector, Turn

START_TOKEN = "<s>"
END_TOKEN = "</s>"
MARKOV_MAX_TOKENS = 60
MARKOV_EMPTY_REDRAWS = 10    # redraws of a first token that ends the response

SYNTH_SAMPLE_RATE = 16000
MIN_TOKEN_RATE = 2.0         # tokens per second floor when decoding rate
ENVELOPE_FLOOR = 0.35        # per-token envelope floor, keeps frames voiced
HARMONIC_BASE = (1.0, 0.45, 0.30, 0.20, 0.13, 0.08)
SYNTH_CHUNK = 1 << 13        # samples per chunk of the render; bounds its memory

RESPONDER_MODES = ("oracle", "markov")
STYLE_MODES = ("oracle", "context_average", "last_same_speaker")


@dataclass(frozen=True)
class MarkovTable:
    """Add-one-smoothed bigram counts over whitespace tokens."""

    counts: dict          # prev token -> Counter of successors
    totals: dict          # prev token -> total observed successors
    vocab: tuple          # sorted successor vocabulary, END_TOKEN included

    def probability(self, prev: str, token: str) -> float:
        c = self.counts.get(prev, {}).get(token, 0)
        total = self.totals.get(prev, 0)
        return (c + 1) / (total + len(self.vocab))

    def sample(self, rng: random.Random) -> str:
        """Tokens drawn from `rng` until END_TOKEN or MARKOV_MAX_TOKENS.  An
        END_TOKEN drawn first is redrawn from the same stream, up to
        MARKOV_EMPTY_REDRAWS times, so a response is empty only past that
        cap; every response that is non-empty without redraws is unchanged."""
        out = []
        prev = START_TOKEN
        weights_cache = {}
        redraws = 0
        while len(out) < MARKOV_MAX_TOKENS:
            if prev not in weights_cache:
                weights_cache[prev] = [self.probability(prev, w) for w in self.vocab]
            token = rng.choices(self.vocab, weights=weights_cache[prev])[0]
            if token == END_TOKEN:
                if out or redraws == MARKOV_EMPTY_REDRAWS:
                    break
                redraws += 1
                continue
            out.append(token)
            prev = token
        return " ".join(out)


def train_markov(corpus: list[Conversation]) -> MarkovTable:
    """Bigram table with start/end markers over every turn in the corpus."""
    counts: dict[str, Counter] = {}
    totals: dict[str, int] = {}
    vocab = set()
    n_turns = 0
    for conv in corpus:
        for turn in conv.turns:
            tokens = turn.text.split()
            if not tokens:
                continue
            n_turns += 1
            seq = [START_TOKEN] + tokens + [END_TOKEN]
            for prev, nxt in zip(seq, seq[1:]):
                counts.setdefault(prev, Counter())[nxt] += 1
                totals[prev] = totals.get(prev, 0) + 1
                vocab.add(nxt)
    if n_turns == 0:
        raise RuntimeError("cannot train a bigram table on an empty corpus")
    return MarkovTable(counts=counts, totals=totals, vocab=tuple(sorted(vocab)))


class ToyRecognizer:
    """Reads the turn's own transcript and injects word substitutions to
    hit the target WER exactly (substitution-only noise), seeded by the
    turn's audio source id."""

    def recognize(self, turn: Turn, target_wer: float = 0.0, rng_seed: int = 0) -> str:
        if not 0.0 <= target_wer <= 1.0:
            raise ValueError(f"target_wer must be in [0, 1], got {target_wer}")
        words = turn.text.split()
        n_sub = math.ceil(target_wer * len(words))
        if n_sub:
            rng = random.Random(f"{rng_seed}:{turn.audio.source_id}")
            for j, pos in enumerate(sorted(rng.sample(range(len(words)), n_sub))):
                words[pos] = f"zzsub{j}zz"
        return " ".join(words)


class ToyResponder:
    """Generates a crop's next turn: a `Turn` by the target speaker with its
    text and prosodic style and no audio, which the synthesizer renders.

    Text modes: oracle (the crop's target text) or markov (bigram sampling
    seeded by the incoming turn's audio source id).  Style modes: oracle
    (the target's style), context_average, last_same_speaker (the target
    speaker's last style in the context).
    """

    def __init__(self, markov: MarkovTable | None = None):
        self._markov = markov

    def respond(self, crop: DialogCrop, context, mode: str = "oracle",
                style_mode: str = "oracle", rng_seed: int = 0) -> Turn:
        target = crop.target_turn
        if mode == "oracle":
            text = target.text
        elif mode == "markov":
            if self._markov is None:
                raise RuntimeError("markov mode requires a trained bigram table")
            source_id = crop.incoming_turn.audio.source_id
            text = self._markov.sample(random.Random(f"{rng_seed}:{source_id}"))
        else:
            raise ValueError(f"unknown responder mode {mode!r}")

        if style_mode == "oracle":
            style = target.prosodic_style
        elif style_mode in ("context_average", "last_same_speaker"):
            style = self._context_style(context, style_mode, target.speaker)
        else:
            raise ValueError(f"unknown style mode {style_mode!r}")
        return Turn(speaker=target.speaker, text=text, prosodic_style=style)

    @staticmethod
    def _context_style(context, style_mode, speaker):
        if style_mode == "last_same_speaker":
            for entry in reversed(context.entries):
                if entry.speaker == speaker:
                    return entry.prosodic_style
        if context.entries:
            mean = np.mean([e.prosodic_style.as_array() for e in context.entries], axis=0)
            return StyleVector(values=tuple(mean), kind="prosodic")
        if speaker in context.reference_styles:
            return context.reference_styles[speaker][0]
        raise ValueError("empty context and no reference style to fall back on")


def _synthesis_seed(text: str, prosodic: StyleVector, acoustic: StyleVector) -> int:
    # imported here: hashlib loads OpenSSL (about 3.6 MB of RSS), which a
    # command that never synthesizes does not need
    import hashlib

    payload = repr((text, prosodic.values, acoustic.values)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _token_rate(prosodic: StyleVector) -> float:
    return min(max(prosodic.values[5] * acoustics.RATE_CAP_PER_S, MIN_TOKEN_RATE),
               acoustics.RATE_CAP_PER_S)


class ToySynthesizer:
    """Renders text as a harmonic tone with one amplitude bump per token.

    Prosodic components drive pitch mean/std, energy, harmonicity, and
    token rate; the acoustic style sets the harmonic amplitude weights
    (timbre).  Output is deterministic given (text, styles).

    The six harmonics are summed with Clenshaw's recurrence (1955) through
    sin(kx) = sin(x) U_{k-1}(cos x):

        sum_k w_k sin(kx) = sin(x) * b_1,  b_k = w_k + 2 cos(x) b_{k+1} - b_{k+2},

    so a sample costs one `cos` and one `sin` of the phase instead of six
    sines of arguments up to 6x larger.  Contract: the clip's int16 `pcm`
    is bit-identical to one `np.sin` per harmonic quantized
    (`tests/oracles.py::synthesize_brute`).  Before quantization, in
    `_signal`, the two differ only by the oracle's own rounding of k x, under
    1e-11 plus 1e-15 per radian of phase.

    Memory: the render holds one clip-length float array, which is f0,
    then the phase, then the signal.  The pitch contour's interpolation,
    the harmonic sum, the noise and the envelope run over `SYNTH_CHUNK`
    samples at a time, and the noise draws of the chunks are those of one
    draw for the whole clip, so the samples are those of a whole-clip pass.
    Quantizing them (`dialog.to_pcm`) adds only the int16 clip.

    Any finite styles render: the HNR, token rate and energy a prosodic
    style asks for are clamped to [HNR_DB_MIN, HNR_DB_MAX] dB,
    [MIN_TOKEN_RATE, RATE_CAP_PER_S] tokens/s and at most 1, so the clip is
    never empty and lies in [-1, 1].  Styles in [0, 1] are inside every
    clamp and render as without them.  `n_samples` gives the clip's length
    without rendering it.
    """

    @staticmethod
    def n_samples(text: str, prosodic: StyleVector) -> int:
        """Length of the clip `synthesize` renders: one token per bump at
        the clamped token rate."""
        return int(round(len(text.split()) / _token_rate(prosodic) * SYNTH_SAMPLE_RATE))

    def synthesize(self, text: str, prosodic: StyleVector,
                   acoustic: StyleVector) -> AudioClip:
        if not text.split():
            raise ValueError("cannot synthesize empty text")
        if prosodic.kind != "prosodic":
            raise ValueError("first style must be prosodic")
        if acoustic.kind != "acoustic":
            raise ValueError("second style must be acoustic")
        return AudioClip.from_samples(SYNTH_SAMPLE_RATE, self._signal(text, prosodic, acoustic))

    def _signal(self, text: str, prosodic: StyleVector, acoustic: StyleVector) -> np.ndarray:
        """The float samples `synthesize` quantizes."""
        sr = SYNTH_SAMPLE_RATE
        p = prosodic.values
        rate = _token_rate(prosodic)
        n = self.n_samples(text, prosodic)
        rng = np.random.default_rng(_synthesis_seed(text, prosodic, acoustic))
        chunks = [slice(start, min(start + SYNTH_CHUNK, n)) for start in range(0, n, SYNTH_CHUNK)]

        ctrl_t, walk = self._pitch_contour(
            rng, n, sr,
            mean_hz=min(max(p[0] * acoustics.PITCH_NORM_HZ, 70.0), 450.0),
            std_hz=min(max(p[1] * acoustics.PITCH_STD_NORM_HZ, 0.0), 40.0))
        signal = np.empty(n)  # f0, then the phase, then the signal
        for chunk in chunks:
            signal[chunk] = np.interp(np.arange(chunk.start, chunk.stop) / sr, ctrl_t, walk)
        phase = np.cumsum(signal, out=signal)
        phase *= 2.0 * math.pi
        phase /= sr

        weights = [HARMONIC_BASE[0]]
        for k in range(1, len(HARMONIC_BASE)):
            weights.append(HARMONIC_BASE[k] * (0.25 + min(abs(acoustic.values[k - 1]), 1.0)))
        hnr_db = min(max(p[4] * acoustics.HNR_SPAN_DB + acoustics.HNR_DB_MIN,
                         acoustics.HNR_DB_MIN), acoustics.HNR_DB_MAX)
        harmonic_power = sum(w * w for w in weights) / 2.0
        sigma = math.sqrt(harmonic_power * 10.0 ** (-hnr_db / 10.0))
        for chunk in chunks:
            part = self._harmonic_sum(phase[chunk], weights)
            noise = rng.standard_normal(out=phase[chunk])  # draws as one call for the clip would
            noise *= sigma
            part += noise
            # one raised-cosine bump per token so the rate is recoverable from
            # the energy envelope; u - floor(u) is (t * rate) % 1.0 exactly, as u >= 0
            u = np.arange(chunk.start, chunk.stop) / sr
            u *= rate
            u -= np.floor(u)
            u *= math.pi
            envelope = np.sin(u, out=u)
            envelope *= envelope
            envelope *= 1.0 - ENVELOPE_FLOOR
            envelope += ENVELOPE_FLOOR
            part *= envelope
            signal[chunk] = part

        # scale so the mean frame RMS matches the requested energy component,
        # capped at 1, the most a clip in [-1, 1] can have
        target = min(max(p[2], 1e-3), 1.0)
        mean_rms = float(np.mean(acoustics.frame_rms(signal, sr)))
        if mean_rms > 0:
            signal *= target / mean_rms
        # hard-limit stray noise peaks; clipping the tail barely moves the
        # frame RMS, whereas rescaling the whole clip would break the energy
        # component of the style round trip
        np.clip(signal, -0.99, 0.99, out=signal)
        return signal

    @staticmethod
    def _harmonic_sum(x, weights):
        """sum_k weights[k-1] * sin(k x) for k = 1..len(weights) >= 3, by
        Clenshaw's recurrence; x is overwritten with sin(x)."""
        two_cos = np.cos(x)
        two_cos *= 2.0
        # b_K = weights[-1] is a scalar, so b_{K-1} and b_{K-2} take one array each
        b_far = two_cos * weights[-1]
        b_far += weights[-2]
        b_near = two_cos * b_far
        b_near += weights[-3] - weights[-1]
        spare = np.empty_like(x)
        for w in reversed(weights[:-3]):
            np.multiply(two_cos, b_near, out=spare)
            spare -= b_far
            spare += w
            b_far, b_near, spare = b_near, spare, b_far
        b_near *= np.sin(x, out=x)
        return b_near

    @staticmethod
    def _pitch_contour(rng, n, sr, mean_hz, std_hz):
        """(times, values) of the control points of a mean-reverting random
        walk at a 100 Hz control rate, which `np.interp` reads at the times
        of n samples.  One vector draw gives the same normals as one scalar
        draw per control point, and the walk runs on Python floats, which
        round like float64 array elements."""
        ctrl_hz = 100.0
        n_ctrl = max(2, int(math.ceil(n / sr * ctrl_hz)) + 1)
        # slow walk: within one analysis frame the pitch is effectively
        # constant, so the injected noise floor alone sets the measured HNR
        rho = math.exp(-1.0 / (ctrl_hz * 8.0))
        innov = std_hz * math.sqrt(1.0 - rho * rho)
        z = rng.standard_normal(n_ctrl).tolist()
        prev = mean_hz + std_hz * z[0]
        walk = [prev]
        for z_i in z[1:]:
            prev = mean_hz + rho * (prev - mean_hz) + innov * z_i
            walk.append(prev)
        return np.arange(n_ctrl) / ctrl_hz, np.clip(walk, 60.0, 480.0)
