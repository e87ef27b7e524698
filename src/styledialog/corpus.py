"""The corpus model: one schema, one writer (`save_corpus`), one parse
(`load_corpus`).

File format: one conversation per JSON line,
  {"id": str, "split": "train|validation|test",
   "turns": [{"speaker": str, "text": str, "audio": path-or-null,
              "synth": {"prosodic_style": [8 floats],
                        "acoustic_style": [8 floats]}}]}
`synth` holds the styles a turn has and is left out when it has neither.
Audio paths are relative to the corpus file's directory and point at 16-bit
PCM mono WAVs.

WAV or synth: a turn's audio comes from its WAV when it has a path.  A turn
with no path is synth-backed when it has both styles and some text: its
audio is a `SynthAudio` of that text and those styles, the one form of
rendered synth audio, held as int16 PCM as a WAV-backed turn's `AudioClip`
is.  Any other turn without a path has no audio, and only such a turn has
`audio=None`.  WAV-backed turns are always read, and a record whose WAV
cannot be read, or whose synth-backed turn would render more than
`MAX_SYNTH_SECONDS`, is a reject.  Each synth-backed turn gets its
`SynthAudio` when its record is parsed; building one renders nothing.
`load_corpus` then renders only the synth-backed clips its caller asks
for through `audio_for` (all of them by default), named by (conversation
id, turn index): `run` asks for its crops' incoming turns, `evaluate` for its
reference turns and `build-prompt` for none.  Any other clip renders on
the first read of its PCM, as every clip of `generate_synthetic_corpus`
does.  `keep`, a predicate on a parsed conversation, narrows the returned
conversations while every record is still checked: `evaluate` keeps only
the conversations its rows name, `build-prompt` only its crop's, and `run`
only those its crops cut (all of them in Markov mode, which trains on every
one); `ingest` and `extract-styles` keep every one.  A clip's `source_id`,
"<conversation id>/<turn index>", is formatted only by `_source_id`; it
names the audio and seeds the toy components' noise, and is never a lookup
key.

`save_corpus` leaves a turn's audio out of the file only when it is a
`SynthAudio` of exactly the turn's own text and styles and `write_audio`
is off, so the loader renders the same clip again; any other audio goes
to a WAV.  So when `ingest` normalisation or indicator stripping changes
the text of a synth-backed turn, its audio is kept in a WAV, not rendered
again from the new text.  Conversation ids are unique: a later record with
an id already loaded is a reject.

Also implements the diarization-filtering step used when ingesting
re-transcribed podcast data, and the bundled synthetic corpus generator.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import audioio, dialog
from .components import SYNTH_SAMPLE_RATE, ToySynthesizer
from .dialog import Conversation, StyleVector, Turn

SPEAKER_INDICATOR_RE = re.compile(r"\[S\d+\]")
# Longest synth-backed clip a record may ask for: 600 s at 16 kHz is 9.6 M
# samples, 77 MB of float64, so under about 115 MB at the render's < 1.5x
# peak.  The bundled corpus's longest turn is 3.1 s.
MAX_SYNTH_SECONDS = 600


def write_atomic(path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`, so a reader never sees a partly written file.  A failed write
    or rename removes the temporary file and re-raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _source_id(conv_id: str, turn_idx: int) -> str:
    return f"{conv_id}/{turn_idx}"


def _style(synth: dict, kind: str) -> StyleVector | None:
    values = synth.get(f"{kind}_style")
    return None if values is None else StyleVector(values=tuple(values), kind=kind)


def _string(rec: dict, key: str) -> str:
    if key not in rec:
        raise ValueError(f"record missing {key!r}")
    if not isinstance(rec[key], str):
        raise ValueError(f"{key!r} must be a string, got {type(rec[key]).__name__}")
    return rec[key]


def _turn_from_record(rec: dict, sid: str, root: Path) -> Turn:
    speaker, text = _string(rec, "speaker"), _string(rec, "text")
    synth = rec.get("synth") or {}
    prosodic, acoustic = _style(synth, "prosodic"), _style(synth, "acoustic")
    if rec.get("audio"):
        audio = audioio.read_wav(root / rec["audio"], source_id=sid)
    elif text.split() and prosodic is not None and acoustic is not None:
        audio = SynthAudio(text, prosodic, acoustic, sid)
        if audio.duration_seconds > MAX_SYNTH_SECONDS:  # sized, not rendered
            raise ValueError(f"synth-backed turn {sid} would render "
                             f"{audio.duration_seconds:.0f} s of audio, over the "
                             f"{MAX_SYNTH_SECONDS} s cap")
    else:
        audio = None
    return Turn(speaker=speaker, text=text, audio=audio,
                prosodic_style=prosodic, acoustic_style=acoustic)


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare
class SynthAudio:
    """The audio of a synth-backed turn, rendered on the first read of
    `pcm` or `samples` and kept as its 16-bit `pcm`.  `sample_rate`,
    `source_id` and `duration_seconds` need no render.  Reads like a
    `dialog.AudioClip`: each read of `samples` makes its floats anew."""

    text: str
    prosodic: StyleVector
    acoustic: StyleVector
    source_id: str
    sample_rate: ClassVar[int] = SYNTH_SAMPLE_RATE

    @property
    def duration_seconds(self) -> float:
        return ToySynthesizer.n_samples(self.text, self.prosodic) / self.sample_rate

    @cached_property
    def pcm(self) -> np.ndarray:
        return ToySynthesizer().synthesize(self.text, self.prosodic, self.acoustic).pcm

    @property
    def samples(self) -> np.ndarray:
        return dialog.from_pcm(self.pcm)


def load_corpus(path, audio_for=None, keep=None):
    """Parse a corpus file into (conversations, rejects): the valid
    conversations, and a (line number, reason) pair for each malformed
    record or line not valid UTF-8.  Raises when no record is valid.

    `keep(conversation) -> bool` narrows what is returned, never what is
    checked: every record is parsed, a malformed one is a reject and a
    repeated id is a reject whether or not its first record was kept, but
    only the valid conversations for which `keep` is true are returned, in
    file order.  It is called once per valid conversation, in file order.
    None keeps every one.

    WAV-backed turns are read whatever is asked, and every synth-backed
    turn carries its `SynthAudio`.  `audio_for(conversations)` is called
    once after the parse, with the conversations this returns, and gives
    the (conversation id, turn index) pairs whose synth-backed audio the
    caller will read; only those clips are rendered here, and the others
    render on the first read of their PCM.  None renders every one.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"corpus file not found: {path}")
    root = path.parent
    conversations, rejects = [], []
    first_line = {}  # conversation id -> line it was loaded from
    with open(path, "rb") as fh:  # each line decoded in its own `try`
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                conv_id = _string(rec, "id")
                if conv_id in first_line:
                    raise ValueError(f"duplicate conversation id {conv_id!r}, "
                                     f"first on line {first_line[conv_id]}")
                turns = tuple(_turn_from_record(t, _source_id(conv_id, i), root)
                              for i, t in enumerate(rec["turns"]))
                conv = Conversation(id=conv_id, turns=turns, split=rec.get("split", "train"))
                first_line[conv_id] = line_no
            except UnicodeDecodeError as exc:  # raised only by the line's decode
                rejects.append((line_no, f"line is not valid UTF-8 at byte {exc.start + 1}"))
                continue
            except (AttributeError, KeyError, ValueError, TypeError, OSError) as exc:
                rejects.append((line_no, str(exc)))
                continue
            if keep is None or keep(conv):
                conversations.append(conv)
    if not first_line:
        raise ValueError(f"no valid conversations in {path} ({len(rejects)} rejected)")
    wanted = None if audio_for is None else frozenset(audio_for(conversations))
    for conv in conversations:
        for i, turn in enumerate(conv.turns):
            if isinstance(turn.audio, SynthAudio) and (wanted is None or (conv.id, i) in wanted):
                turn.audio.pcm  # render here, where the benchmark's corpus metrics time it
    return conversations, rejects


def save_corpus(path, conversations, write_audio: bool = False) -> None:
    """Write conversations in the one corpus schema.  A turn's audio goes to
    `audio/<id>_<turn>.wav` beside the file unless it is a `SynthAudio` of
    the turn's own text and styles and `write_audio` is off: such a turn is
    stored as its styles alone and rendered again on load."""
    root = Path(path).parent
    lines = []
    for conv in conversations:
        turns = []
        for i, turn in enumerate(conv.turns):
            rec = {"speaker": turn.speaker, "text": turn.text, "audio": None}
            audio = turn.audio
            rendered_on_load = (isinstance(audio, SynthAudio) and not write_audio
                                and (audio.text, audio.prosodic, audio.acoustic)
                                == (turn.text, turn.prosodic_style, turn.acoustic_style))
            if audio is not None and not rendered_on_load:
                rec["audio"] = f"audio/{conv.id}_{i}.wav"
                (root / "audio").mkdir(parents=True, exist_ok=True)
                audioio.write_wav(root / rec["audio"], audio)
            synth = {f"{style.kind}_style": list(style.values)
                     for style in (turn.prosodic_style, turn.acoustic_style)
                     if style is not None}
            if synth:
                rec["synth"] = synth
            turns.append(rec)
        lines.append(json.dumps({"id": conv.id, "split": conv.split, "turns": turns}))
    write_atomic(path, "\n".join(lines) + "\n")


def filter_diarization(transcript: str) -> bool:
    """True = keep. Discard iff two or more distinct [S<digits>] indicators."""
    return len(set(SPEAKER_INDICATOR_RE.findall(transcript))) < 2


def strip_leading_indicator(transcript: str) -> tuple[str, bool]:
    """Drop a single leading speaker-indicator token from a kept transcript."""
    stripped = transcript.lstrip()
    m = SPEAKER_INDICATOR_RE.match(stripped)
    if m:
        return stripped[m.end():].lstrip(), True
    return transcript, False


# --- synthetic corpus -------------------------------------------------------

_TEMPLATE_WORDS = [
    "well", "so", "today", "we", "talked", "about", "the", "weather", "and",
    "music", "that", "sounds", "really", "interesting", "tell", "me", "more",
    "please", "what", "do", "you", "think", "of", "this", "new", "plan",
    "honestly", "it", "could", "work", "but", "needs", "time", "right",
    "maybe", "later", "sure", "thanks", "for", "sharing", "your", "idea",
]


def _sample_speaker_prior(rng: random.Random):
    """Per-speaker prosodic style prior: a mean vector plus a small spread."""
    mean = [
        rng.uniform(0.20, 0.60),   # pitch mean (100..300 Hz)
        rng.uniform(0.03, 0.12),   # pitch std
        rng.uniform(0.05, 0.18),   # energy mean
        rng.uniform(0.02, 0.06),   # energy std
        rng.uniform(0.45, 0.75),   # hnr (7..25 dB)
        rng.uniform(0.15, 0.40),   # rate (3..8 tokens/s)
        0.05,                      # log-duration; overwritten per turn
        rng.uniform(0.90, 1.00),   # voiced fraction
    ]
    spread = [0.02, 0.01, 0.015, 0.005, 0.03, 0.02, 0.0, 0.01]
    return mean, spread


def _sample_acoustic_style(rng: random.Random) -> StyleVector:
    return StyleVector(values=tuple(rng.uniform(0.0, 1.0) for _ in range(8)),
                       kind="acoustic")


def generate_synthetic_corpus(n_conversations: int, seed: int):
    """Deterministic corpus of 4-8 turn conversations between 2-3 speakers.

    Each turn carries template text, a prosodic style sampled from the
    speaker's prior, the speaker's acoustic style, and its audio as a
    `SynthAudio`, so audio, text, and styles are mutually consistent.  No
    clip is rendered here: each renders on the first read of its PCM,
    while its duration is known at once.
    Returns the conversations and the acoustic styles again as
    `{conversation id: {speaker: values}}`, the records
    `save_synthetic_corpus` takes.
    """
    if n_conversations < 1:
        raise ValueError("need at least one conversation")
    rng = random.Random(seed)
    conversations = []
    acoustic_records = {}
    for c in range(n_conversations):
        conv_id = f"synth{c:03d}"
        n_speakers = rng.choice([2, 2, 3])
        speakers = [f"spk{c:03d}{chr(ord('a') + s)}" for s in range(n_speakers)]
        priors = {s: _sample_speaker_prior(rng) for s in speakers}
        acoustics_by_spk = {s: _sample_acoustic_style(rng) for s in speakers}
        turns = []
        for t in range(rng.randint(4, 8)):
            # adjacent turns may repeat a speaker (podcast style)
            speaker = rng.choice(speakers)
            n_words = rng.randint(4, 9)
            text = " ".join(rng.choice(_TEMPLATE_WORDS) for _ in range(n_words))
            mean, spread = priors[speaker]
            values = [min(max(m + rng.gauss(0.0, sd), 0.0), 1.0)
                      for m, sd in zip(mean, spread)]
            style = StyleVector(values=tuple(values), kind="prosodic")
            audio = SynthAudio(text, style, acoustics_by_spk[speaker], _source_id(conv_id, t))
            turns.append(Turn(speaker=speaker, text=text, audio=audio, prosodic_style=style,
                              acoustic_style=acoustics_by_spk[speaker]))
        conversations.append(Conversation(id=conv_id, turns=tuple(turns), split="test"))
        acoustic_records[conv_id] = {s: list(v.values)
                                     for s, v in acoustics_by_spk.items()}
    return conversations, acoustic_records


def save_synthetic_corpus(path, conversations, acoustic_records) -> None:
    """Save conversations with each speaker's acoustic style taken from
    `acoustic_records` (conversation id -> speaker -> values), so every turn
    is synth-backed and the file stays tiny."""
    save_corpus(path, [replace(conv, turns=tuple(
        replace(turn, acoustic_style=StyleVector(
            values=tuple(acoustic_records[conv.id][turn.speaker]), kind="acoustic"))
        for turn in conv.turns)) for conv in conversations])


class CorpusIndex:
    """The loaded conversations by id, and the reference styles each
    conversation's speakers speak from."""

    def __init__(self, conversations):
        self.conversations = {c.id: c for c in conversations}

    def reference_styles(self, conv_id: str) -> dict:
        """speaker -> (prosodic reference, acoustic style).  The prosodic
        reference is the speaker's mean style over the conversation; the
        acoustic style is the one on the speaker's last turn that has one."""
        prosodic, acoustic = {}, {}
        for turn in self.conversations[conv_id].turns:
            if turn.prosodic_style is not None:
                prosodic.setdefault(turn.speaker, []).append(turn.prosodic_style.as_array())
            if turn.acoustic_style is not None:
                acoustic[turn.speaker] = turn.acoustic_style
        refs = {}
        for speaker, styles in prosodic.items():
            if speaker not in acoustic:
                raise KeyError(f"no acoustic style for {speaker!r} in {conv_id!r}")
            mean = np.mean(styles, axis=0)
            refs[speaker] = (StyleVector(values=tuple(mean), kind="prosodic"), acoustic[speaker])
        return refs


def load_corpus_with_index(path, audio_for=None, keep=None):
    """`load_corpus` plus the `CorpusIndex` of what it loaded."""
    conversations, rejects = load_corpus(path, audio_for, keep)
    return conversations, CorpusIndex(conversations), rejects
