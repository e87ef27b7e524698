from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from styledialog.dialog import (AudioClip, Conversation, ConversationContext,
                                StyleVector, Turn, context_from_turns, make_crop)
from styledialog.prompts import (INPUT_STYLE_TOKEN, OUTPUT_STYLE_TOKEN,
                                 PromptVariant, build_prompt, count_tokens,
                                 truncate_to_budget)

from oracles import build_prompt_emit

GOLDEN = Path(__file__).parent / "golden"


def _turn(speaker, text, pitch):
    p = np.zeros(8)
    p[0] = pitch; p[2] = 0.1; p[4] = 0.6; p[5] = 0.3; p[7] = 1.0
    audio = AudioClip.from_samples(16000, np.zeros(1600), source_id=f"fix/{speaker}")
    return Turn(speaker=speaker, text=text, audio=audio,
                prosodic_style=StyleVector(values=tuple(p), kind="prosodic"))


def fixture_crop():
    conv = Conversation(id="fix", turns=(
        _turn("alice", "good morning how did the trip go", 0.40),
        _turn("bob", "pretty well thanks the train was on time", 0.28),
        _turn("alice", "that is great did you see the new station", 0.42),
        _turn("bob", "yes it looked really modern inside", 0.30),
    ), split="test")
    crop = make_crop(conv, 3)
    refs = {"alice": (conv.turns[0].prosodic_style,
                      StyleVector(values=(0.1,) * 8, kind="acoustic")),
            "bob": (conv.turns[1].prosodic_style,
                    StyleVector(values=(0.2,) * 8, kind="acoustic"))}
    context = context_from_turns(crop.context_turns[:-1], refs)
    return crop, context


class TestGoldenFiles:
    @pytest.mark.parametrize("variant", list(PromptVariant))
    def test_byte_identical(self, variant):
        crop, context = fixture_crop()
        built = build_prompt(crop, context, variant, "fix_2.wav")
        golden = (GOLDEN / f"prompt_{variant.value}.txt").read_bytes()
        assert built.text.encode("utf-8") == golden


class TestSlots:
    def test_full_slot_layout(self):
        crop, context = fixture_crop()
        built = build_prompt(crop, context, PromptVariant.FULL, "a.wav")
        assert built.text.count(INPUT_STYLE_TOKEN) == len(built.input_style_slots)
        assert built.text.count(OUTPUT_STYLE_TOKEN) == 1
        # header references come before context slots
        kinds = [s.ref_kind for s in built.input_style_slots]
        assert kinds == ["reference", "reference", "context", "context"]
        for slot in built.input_style_slots:
            assert built.text[slot.offset:slot.offset + len(INPUT_STYLE_TOKEN)] == INPUT_STYLE_TOKEN
        off = built.output_style_slot
        assert built.text[off:off + len(OUTPUT_STYLE_TOKEN)] == OUTPUT_STYLE_TOKEN

    def test_no_style_variant_zero_input_slots(self):
        crop, context = fixture_crop()
        built = build_prompt(crop, context, PromptVariant.NO_STYLE_CONTEXT, "a.wav")
        assert built.input_style_slots == ()
        assert built.text.count(INPUT_STYLE_TOKEN) == 0
        assert built.text.count(OUTPUT_STYLE_TOKEN) == 1

    @pytest.mark.parametrize("variant", list(PromptVariant))
    def test_bijection_all_variants(self, variant):
        crop, context = fixture_crop()
        built = build_prompt(crop, context, variant, "a.wav")
        assert built.text.count(INPUT_STYLE_TOKEN) == len(built.input_style_slots)
        assert built.text.count(OUTPUT_STYLE_TOKEN) == 1

    def test_empty_context_full(self):
        crop, context = fixture_crop()
        empty = ConversationContext(reference_styles=dict(context.reference_styles))
        built = build_prompt(crop, empty, PromptVariant.FULL, "a.wav")
        # 2 header references, no context lines
        assert len(built.input_style_slots) == 2
        assert "TEXT: good morning" not in built.text

    def test_missing_reference_style(self):
        crop, context = fixture_crop()
        bare = ConversationContext(entries=context.entries, reference_styles={})
        with pytest.raises(KeyError):
            build_prompt(crop, bare, PromptVariant.FULL, "a.wav")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            PromptVariant.parse("nonsense")


class TestVariantDiffs:
    def test_full_vs_asr_plus_style(self):
        crop, context = fixture_crop()
        full = build_prompt(crop, context, PromptVariant.FULL, "a.wav").text
        asr = build_prompt(crop, context, PromptVariant.ASR_PLUS_STYLE, "a.wav").text
        # asr variant = full plus one appended incoming-turn line
        incoming_line = (f"{crop.incoming_turn.speaker}: STYLE: {INPUT_STYLE_TOKEN} "
                         f"TEXT: {crop.incoming_turn.text}\n")
        assert asr.replace(incoming_line, "", 1) == full

    def test_no_audio_vs_asr_plus_style(self):
        crop, context = fixture_crop()
        asr = build_prompt(crop, context, PromptVariant.ASR_PLUS_STYLE, "a.wav").text
        no_audio = build_prompt(crop, context, PromptVariant.NO_AUDIO_INPUT, "a.wav").text
        assert asr == f"Audio 1:<audio>a.wav</audio>\n\n{no_audio}"


class TestTokenCount:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_placeholder_line(self):
        assert count_tokens(f"STYLE: {INPUT_STYLE_TOKEN} TEXT: hi") == 4

    def test_matches_brute_force(self):
        crop, context = fixture_crop()
        built = build_prompt(crop, context, PromptVariant.FULL, "a.wav")
        assert built.token_count == len(built.text.split())


class TestTruncation:
    def _long_context(self, crop, refs, n_turns=10, words=30):
        style = refs["alice"][0]
        return context_from_turns(
            [Turn("alice", " ".join(f"w{i}x{j}" for j in range(words)), prosodic_style=style)
             for i in range(n_turns)], refs)

    def test_identity_when_fitting(self):
        crop, context = fixture_crop()
        out = truncate_to_budget(context, 1536, crop=crop, variant=PromptVariant.FULL,
                                 audio_path="a.wav")
        assert out.entries == context.entries

    def test_drops_oldest_whole_turns(self):
        crop, context = fixture_crop()
        refs = context.reference_styles
        ctx = self._long_context(crop, refs)
        scaffold = build_prompt(
            crop, ConversationContext(reference_styles=dict(refs)),
            PromptVariant.FULL, "a.wav").token_count
        per_turn = 33  # speaker + STYLE: + placeholder + TEXT: + 30 words... measured below
        built_full = build_prompt(crop, ctx, PromptVariant.FULL, "a.wav").token_count
        per_turn = (built_full - scaffold) // 10
        budget = scaffold + 3 * per_turn
        out = truncate_to_budget(ctx, budget, crop=crop, variant=PromptVariant.FULL,
                                 audio_path="a.wav")
        assert len(out.entries) == 3
        assert out.entries == ctx.entries[-3:]

    def test_idempotent(self):
        crop, context = fixture_crop()
        refs = context.reference_styles
        ctx = self._long_context(crop, refs)
        budget = 200
        once = truncate_to_budget(ctx, budget, crop=crop, variant=PromptVariant.FULL,
                                  audio_path="a.wav")
        twice = truncate_to_budget(once, budget, crop=crop, variant=PromptVariant.FULL,
                                   audio_path="a.wav")
        assert once.entries == twice.entries

    def test_budget_below_scaffold(self):
        crop, context = fixture_crop()
        with pytest.raises(ValueError):
            truncate_to_budget(context, 5, crop=crop, variant=PromptVariant.FULL,
                               audio_path="a.wav")


# no "|", so a drawn string never holds a style token
TEXT = st.text(alphabet="ab <>:\t\né", max_size=12)
SPEAKERS = st.one_of(st.sampled_from(["", " x ", "b c", "\t", "alice"]), TEXT)


class TestMatchesEmitReference:
    """`build_prompt` reads its slots back from the finished text; the
    reference tracks every offset as it emits the text."""

    @settings(max_examples=300, deadline=None)
    @given(turns=st.lists(st.tuples(SPEAKERS, TEXT), min_size=2, max_size=6),
           data=st.data(), variant=st.sampled_from(list(PromptVariant)), audio_path=TEXT)
    def test_equals_reference(self, turns, data, variant, audio_path):
        style = StyleVector(values=(0.5,) * 8, kind="prosodic")
        conv = Conversation(id="h", turns=[Turn(speaker, text, prosodic_style=style)
                                           for speaker, text in turns])
        crop = make_crop(conv, data.draw(st.integers(1, len(turns) - 1), label="k"))
        known = data.draw(st.sets(st.sampled_from([s for s, _ in turns])), label="refs")
        refs = {s: (style, StyleVector(values=(0.1,) * 8, kind="acoustic")) for s in known}
        context = context_from_turns(crop.context_turns[:-1], refs)
        try:
            text, slots, output, tokens = build_prompt_emit(crop, context, variant.value,
                                                            audio_path)
        except KeyError:
            with pytest.raises(KeyError):
                build_prompt(crop, context, variant, audio_path)
            return
        built = build_prompt(crop, context, variant, audio_path)
        assert built.text == text
        assert [(s.offset, s.ref_kind, s.ref_id) for s in built.input_style_slots] == list(slots)
        assert built.output_style_slot == output
        assert built.token_count == tokens


class TestReservedTokens:
    """A style token inside a string the prompt substitutes would pass for
    a slot, so it is refused."""

    @pytest.mark.parametrize("token", [INPUT_STYLE_TOKEN, OUTPUT_STYLE_TOKEN])
    @pytest.mark.parametrize("where", ["context text", "incoming text", "speaker",
                                       "audio path"])
    def test_raises(self, token, where):
        crop, context = fixture_crop()
        variant, audio_path = PromptVariant.ASR_PLUS_STYLE, "a.wav"
        if where == "context text":
            first = context.entries[0]
            context = replace(context, entries=(replace(first, text=f"hi {token}"),
                                                *context.entries[1:]))
        elif where == "incoming text":
            incoming = replace(crop.incoming_turn, text=f"{token} there")
            crop = replace(crop, context_turns=(*crop.context_turns[:-1], incoming))
        elif where == "speaker":
            def rename(turn):
                return replace(turn, speaker=f"{turn.speaker}{token}")
            crop = replace(crop, context_turns=[rename(t) for t in crop.context_turns],
                           target_turn=rename(crop.target_turn))
            context = replace(context, entries=crop.context_turns[:-1], reference_styles={
                f"{s}{token}": v for s, v in context.reference_styles.items()})
        else:
            audio_path = f"c{token}_3.wav"
        with pytest.raises(ValueError, match="reserved style token"):
            build_prompt(crop, context, variant, audio_path)
