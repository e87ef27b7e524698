"""Discrete-event simulation of the three pipeline topologies over a
logical clock, with the stall-free delay rule.

Each topology runs its stages back to back in two lanes.  The critical
lane starts when the previous turn's background work ends (carryover) and
ends at `end`, when the reply's audio is all generated.  Delay is the
earliest playback start with no audio underrun.  Only the synthesis stage
of the cascade and style-talker topologies streams: its per-output-audio
term, c seconds per audio second, produces audio linearly up to `end`, so
audio second t is ready at end - c*(out_dur - t), and playback from d never
stalls iff d >= end - c*out_dur + (c - 1)*t for every t in [0, out_dur]:

    delay = end - min(c, 1) * out_dur    (cascade, style-talker)
    delay = end                          (e2e: all speech units come first)

The style-talker's background lane (ASR, style extraction) starts at
playback start; whatever of it outlasts playback is charged to the next
turn's delay (carryover), never dropped, so the context stays correct.

This is the only module that knows what a stage costs: `LatencyModel` (one
stage's affine cost) and `RunConfig` (a run's checked configuration, stage
costs included) live here, and the components carry no cost of their own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

from .components import (RESPONDER_MODES, STYLE_MODES, MarkovTable, ToyRecognizer,
                         ToyResponder, ToySynthesizer)
from .dialog import Turn, context_from_turns


class Topology(str, Enum):
    CASCADE = "cascade"
    STYLE_TALKER = "style_talker"
    E2E_SPEECH = "e2e_speech"

    @classmethod
    def parse(cls, name: str) -> "Topology":
        aliases = {"cascade": cls.CASCADE, "style-talker": cls.STYLE_TALKER,
                   "style_talker": cls.STYLE_TALKER, "e2e": cls.E2E_SPEECH,
                   "e2e_speech": cls.E2E_SPEECH}
        if name not in aliases:
            raise ValueError(f"unknown topology {name!r}")
        return aliases[name]


# each topology's stages in run order: the critical lane ends when the reply's
# audio is generated; the background lane starts at playback start.  This is
# the one table of what the generator hears: the incoming turn's recognized
# text joins its context exactly when "asr" runs on the critical lane
CRITICAL = {
    Topology.CASCADE: ("asr", "llm", "tts"),
    Topology.STYLE_TALKER: ("audio_llm", "tts"),
    Topology.E2E_SPEECH: ("e2e",),
}
BACKGROUND = {Topology.STYLE_TALKER: ("asr", "style_enc")}
# stage names each topology requires in the latency map
STAGES = {t: CRITICAL[t] + BACKGROUND.get(t, ()) for t in Topology}


class ConfigurationError(ValueError):
    pass


def check_number(name: str, value, high: float) -> None:
    """The one check of a number a run's config gives: an int or a float,
    not a bool or a string, finite and in [0, high]."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= min(high, sys.float_info.max)):
        bounds = "a finite number >= 0" if high == math.inf else f"a number in [0, {high:g}]"
        raise ConfigurationError(f"{name} must be {bounds}, got {value!r}")


@dataclass(frozen=True)
class LatencyModel:
    """Affine cost: fixed + a*input_audio_s + b*output_tokens + c*output_audio_s."""

    fixed_s: float = 0.0
    per_input_audio_s: float = 0.0
    per_output_token_s: float = 0.0
    per_output_audio_s: float = 0.0

    def __post_init__(self):
        for name in ("fixed_s", "per_input_audio_s", "per_output_token_s", "per_output_audio_s"):
            check_number(name, getattr(self, name), math.inf)
            object.__setattr__(self, name, float(getattr(self, name)))

    def evaluate(self, input_dur: float, out_tokens: int, out_dur: float) -> float:
        return (self.fixed_s + self.per_input_audio_s * input_dur
                + self.per_output_token_s * out_tokens
                + self.per_output_audio_s * out_dur)


@dataclass(frozen=True)
class StageEvent:
    stage: str
    start_s: float
    end_s: float
    turn_index: int
    lane: str  # "critical" | "background"

    def __post_init__(self):
        if self.end_s < self.start_s:
            raise ValueError("event ends before it starts")


@dataclass(frozen=True)
class SimReport:
    rtf: float
    delay_s: float
    timeline: tuple[StageEvent, ...]
    carryover_s: float


@dataclass(frozen=True)
class RunConfig:
    """Every setting a config file gives, and the run's seed, checked once
    when it is built.  `run_dialog` reads all but the tokens per output
    second, which `simulate` reads."""

    topology: Topology
    latencies: dict  # stage -> LatencyModel
    responder_mode: str = "oracle"
    style_mode: str = "oracle"
    target_wer: float = 0.0
    seed: int = 0
    tokens_per_output_second: float = 3

    def __post_init__(self):
        object.__setattr__(self, "topology", Topology(self.topology))
        missing = [s for s in STAGES[self.topology] if s not in self.latencies]
        if missing:
            raise ConfigurationError(f"topology {self.topology.value} needs a latency model "
                                     f"for stage(s) {', '.join(missing)}")
        if self.responder_mode not in RESPONDER_MODES:
            raise ConfigurationError(f"unknown responder_mode {self.responder_mode!r}")
        if self.style_mode not in STYLE_MODES:
            raise ConfigurationError(f"unknown style_mode {self.style_mode!r}")
        check_number("target_wer", self.target_wer, 1.0)
        check_number("tokens_per_output_second", self.tokens_per_output_second, math.inf)


def simulate_turn(topology: Topology, input_dur: float, out_tokens: int,
                  out_dur: float, latencies: dict,
                  prev_carryover: float = 0.0, turn_index: int = 0) -> SimReport:
    """Simulate one turn and report RTF, stall-free delay, and carryover."""
    topology = Topology(topology)
    if input_dur < 0 or out_dur < 0:
        raise ValueError("durations must be >= 0")
    if out_dur == 0:
        raise ValueError("out_dur is 0: RTF is undefined")
    for stage in STAGES[topology]:
        if stage not in latencies:
            raise ConfigurationError(f"topology {topology.value} needs a latency model "
                                     f"for stage {stage!r}")

    events: list[StageEvent] = []

    def run_lane(lane: str, stages: tuple[str, ...], start: float) -> float:
        """Run `stages` back to back from `start`; returns when the last ends."""
        for stage in stages:
            end = start + latencies[stage].evaluate(input_dur, out_tokens, out_dur)
            events.append(StageEvent(stage=stage, start_s=start, end_s=end,
                                     turn_index=turn_index, lane=lane))
            start = end
        return start

    # unfinished background work of the previous turn blocks the critical lane
    end = run_lane("critical", CRITICAL[topology], prev_carryover)
    if "tts" in CRITICAL[topology]:
        delay = end - min(latencies["tts"].per_output_audio_s, 1.0) * out_dur
    else:
        delay = end
    background_end = run_lane("background", BACKGROUND.get(topology, ()), delay)
    carryover = max(0.0, background_end - (delay + out_dur))
    return SimReport(rtf=(end - prev_carryover) / out_dur, delay_s=delay,
                     timeline=tuple(events), carryover_s=carryover)


@dataclass(frozen=True)
class TurnResult:
    report: SimReport
    generated: Turn
    recognized_text: str


def run_dialog(config: RunConfig, crops, reference_styles,
               markov: MarkovTable | None = None) -> list[TurnResult | str]:
    """Run the pipeline over a crop list, chaining background carryover:
    one result per crop.  A crop that raises leaves the carryover as it was,
    and its result is only the error, "<Type>: <message>".

    The toy components read each crop's own turns as their ground truth;
    `reference_styles(conversation_id)` gives each speaker's (prosodic,
    acoustic) reference, and `markov` is the bigram table the markov
    responder samples from.  The generator's context is the turns before
    the incoming one; where `CRITICAL` runs "asr" before the generator,
    the incoming turn also joins it as a `Turn` of its recognized text and
    its speaker's reference prosodic style.  The generated turn is the
    responder's `Turn` with the synthesized audio.
    """
    recognizer, responder, synthesizer = ToyRecognizer(), ToyResponder(markov), ToySynthesizer()
    results = []
    carryover = 0.0
    for i, crop in enumerate(crops):
        try:
            refs = reference_styles(crop.conversation_id)
            incoming = crop.incoming_turn
            if incoming.audio is None:
                raise ValueError("incoming turn has no audio")

            recognized = recognizer.recognize(incoming, target_wer=config.target_wer,
                                              rng_seed=config.seed)
            heard = crop.context_turns[:-1]
            if "asr" in CRITICAL[config.topology]:
                heard += (Turn(incoming.speaker, recognized,
                               prosodic_style=refs[incoming.speaker][0]),)

            response = responder.respond(crop, context_from_turns(heard, refs),
                                         mode=config.responder_mode,
                                         style_mode=config.style_mode, rng_seed=config.seed)
            audio = synthesizer.synthesize(response.text, response.prosodic_style,
                                           refs[response.speaker][1])
            report = simulate_turn(config.topology, incoming.audio.duration_seconds,
                                   len(response.text.split()), audio.duration_seconds,
                                   config.latencies, prev_carryover=carryover, turn_index=i)
            results.append(TurnResult(report=report, generated=replace(response, audio=audio),
                                      recognized_text=recognized))
            carryover = report.carryover_s
        except Exception as exc:
            results.append(f"{type(exc).__name__}: {exc}")
    return results
