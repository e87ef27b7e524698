"""Prompt construction for the audio-LLM, with style-placeholder slot
tracking, token budgeting, and the ablation variants.

The template is emitted byte-exactly (LF line endings, hard-wrapped lines
ending in a single trailing space) and is pinned by golden-file tests.
`<|extra_123|>` marks an input style slot, `<|extra_124|>` the single
output style slot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .dialog import ConversationContext, DialogCrop

INPUT_STYLE_TOKEN = "<|extra_123|>"
OUTPUT_STYLE_TOKEN = "<|extra_124|>"


class PromptVariant(str, Enum):
    FULL = "full"
    NO_STYLE_CONTEXT = "no_style_context"
    NO_AUDIO_INPUT = "no_audio_input"
    ASR_PLUS_STYLE = "asr_plus_style"

    @classmethod
    def parse(cls, name: str) -> "PromptVariant":
        aliases = {
            "full": cls.FULL,
            "no-style": cls.NO_STYLE_CONTEXT,
            "no_style_context": cls.NO_STYLE_CONTEXT,
            "no-audio": cls.NO_AUDIO_INPUT,
            "no_audio_input": cls.NO_AUDIO_INPUT,
            "asr-style": cls.ASR_PLUS_STYLE,
            "asr_plus_style": cls.ASR_PLUS_STYLE,
        }
        if name not in aliases:
            raise ValueError(f"unknown prompt variant {name!r}")
        return aliases[name]


@dataclass(frozen=True)
class StyleSlot:
    offset: int        # char offset of the placeholder's first character
    ref_kind: str      # "reference" | "context" | "incoming"
    ref_id: object     # speaker name for references, entry index for context


@dataclass(frozen=True)
class BuiltPrompt:
    text: str
    input_style_slots: tuple[StyleSlot, ...]
    output_style_slot: int
    token_count: int


def count_tokens(text: str) -> int:
    """Whitespace word count; placeholders contain no spaces so each counts 1."""
    return len(text.split())


def _header_speakers(crop: DialogCrop, context: ConversationContext) -> list[str]:
    """Incoming speaker first, then context speakers by first appearance,
    then the response speaker if not already present."""
    order = [crop.incoming_turn.speaker]
    for entry in context.entries:
        if entry.speaker not in order:
            order.append(entry.speaker)
    if crop.target_turn.speaker not in order:
        order.append(crop.target_turn.speaker)
    return order


def build_prompt(crop: DialogCrop, context: ConversationContext,
                 variant: PromptVariant, audio_path: str) -> BuiltPrompt:
    """Assemble the prompt for one crop.

    The context must already be windowed/truncated; its entries are the
    fully processed turns, excluding the incoming one.  Variants:
    no_style_context drops every input style fragment; no_audio_input drops
    the audio line and appends the incoming turn as a context line;
    asr_plus_style keeps the audio line and also appends that line.
    """
    variant = PromptVariant(variant)
    spk_in = crop.incoming_turn.speaker
    spk_out = crop.target_turn.speaker
    speakers = _header_speakers(crop, context)
    for speaker in speakers:
        if speaker not in context.reference_styles:
            raise KeyError(f"no reference style for speaker {speaker!r}")

    with_styles = variant is not PromptVariant.NO_STYLE_CONTEXT
    parts: list[str] = []
    slots: list[StyleSlot] = []
    length = 0

    def emit(text: str):
        nonlocal length
        parts.append(text)
        length += len(text)

    def emit_style_slot(ref_kind, ref_id):
        slots.append(StyleSlot(offset=length, ref_kind=ref_kind, ref_id=ref_id))
        emit(INPUT_STYLE_TOKEN)

    if variant is not PromptVariant.NO_AUDIO_INPUT:
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
    if variant in (PromptVariant.NO_AUDIO_INPUT, PromptVariant.ASR_PLUS_STYLE):
        emit_context_line(spk_in, crop.incoming_turn.text, "incoming", len(context.entries))

    emit(f"\nTry to recognize what {spk_in} just said from the audio, \n"
         f"and generate the style and text of the next speaker {spk_out}. \n"
         f"Be creative and avoid repeated words and sentences. \nSTYLE: ")
    output_offset = length
    emit(f"{OUTPUT_STYLE_TOKEN} TEXT:")

    text = "".join(parts)
    assert text.count(INPUT_STYLE_TOKEN) == len(slots)
    assert text.count(OUTPUT_STYLE_TOKEN) == 1
    return BuiltPrompt(text=text, input_style_slots=tuple(slots),
                       output_style_slot=output_offset,
                       token_count=count_tokens(text))


def truncate_to_budget(context: ConversationContext, budget: int, *, crop: DialogCrop,
                       variant: PromptVariant = PromptVariant.FULL,
                       audio_path: str = "") -> ConversationContext:
    """Drop whole oldest turns until the built prompt fits the token budget.

    Never splits a turn; the header reference styles are always retained.
    Raises if even the zero-turn scaffold exceeds the budget.
    """
    current = context
    while True:
        built = build_prompt(crop, current, variant, audio_path)
        if built.token_count <= budget:
            return current
        if not current.entries:
            raise ValueError(
                f"token budget {budget} is below the prompt scaffold "
                f"({built.token_count} tokens with no context turns)")
        current = replace(current, entries=current.entries[1:])
