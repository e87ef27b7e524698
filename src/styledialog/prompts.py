"""Prompt construction for the audio-LLM, with style-placeholder slot
tracking, token budgeting, and the ablation variants.

The template is emitted byte-exactly (LF line endings, hard-wrapped lines
ending in a single trailing space) and is pinned by golden-file tests.
`<|extra_123|>` marks an input style slot, `<|extra_124|>` the single
output style slot.  A token inside a string the prompt substitutes raises
ValueError, so every token in a built prompt is a slot, read back in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum

from .dialog import ConversationContext, DialogCrop

INPUT_STYLE_TOKEN = "<|extra_123|>"
OUTPUT_STYLE_TOKEN = "<|extra_124|>"
_INPUT_SLOT = re.compile(re.escape(INPUT_STYLE_TOKEN))


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
    return list(dict.fromkeys([crop.incoming_turn.speaker,
                               *[entry.speaker for entry in context.entries],
                               crop.target_turn.speaker]))


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
    speakers = _header_speakers(crop, context)
    for speaker in speakers:
        if speaker not in context.reference_styles:
            raise KeyError(f"no reference style for speaker {speaker!r}")
    # (speaker, text, ref_kind, ref_id) of each context line
    lines = [(entry.speaker, entry.text, "context", i) for i, entry in enumerate(context.entries)]
    if variant in (PromptVariant.NO_AUDIO_INPUT, PromptVariant.ASR_PLUS_STYLE):
        lines.append((spk_in, crop.incoming_turn.text, "incoming", len(context.entries)))

    with_styles = variant is not PromptVariant.NO_STYLE_CONTEXT
    slot = f" STYLE: {INPUT_STYLE_TOKEN}" if with_styles else ""
    text = "".join([
        "" if variant is PromptVariant.NO_AUDIO_INPUT
        else f"Audio 1:<audio>{audio_path}</audio>\n\n",
        f"This is the voice of the {spk_in} last speaking. There is a conversation \namong ",
        " ".join([f"{s}:{slot}" for s in speakers] if with_styles else speakers),
        ". \nHere is some context: \n\n",
        *[f"{s}:{slot} TEXT: {t}\n" for s, t, _, _ in lines],
        f"\nTry to recognize what {spk_in} just said from the audio, \n"
        f"and generate the style and text of the next speaker {crop.target_turn.speaker}. \n"
        f"Be creative and avoid repeated words and sentences. \nSTYLE: {OUTPUT_STYLE_TOKEN} TEXT:",
    ])
    refs = ([("reference", s) for s in speakers] + [ln[2:] for ln in lines]) if with_styles else []
    matches = list(_INPUT_SLOT.finditer(text))
    if len(matches) != len(refs) or text.count(OUTPUT_STYLE_TOKEN) != 1:
        bad = next(v for v in (audio_path, *speakers, *(s for ln in lines for s in ln[:2]))
                   if INPUT_STYLE_TOKEN in v or OUTPUT_STYLE_TOKEN in v)
        raise ValueError(f"prompt input {bad!r} holds a reserved style token")
    slots = tuple([StyleSlot(match.start(), *ref) for match, ref in zip(matches, refs)])
    return BuiltPrompt(text, slots, text.index(OUTPUT_STYLE_TOKEN), count_tokens(text))


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
