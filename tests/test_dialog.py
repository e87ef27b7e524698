import numpy as np
import pytest

from styledialog.dialog import (AudioClip, Conversation, StyleVector, Turn,
                                context_from_turns, make_crop, sample_crop_index)
from conftest import make_conversation, prosodic, simple_style


class TestAudioClip:
    def test_duration(self):
        clip = AudioClip.from_samples(16000, np.zeros(16000))
        assert clip.duration_seconds == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioClip.from_samples(16000, np.array([0.0, 1.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip.from_samples(16000, np.array([0.0, np.nan]))

    def test_rejects_stereo(self):
        with pytest.raises(ValueError):
            AudioClip.from_samples(16000, np.zeros((2, 100)))

    def test_rejects_empty(self):
        """A clip holds at least one sample, so no analysis meets an empty one."""
        with pytest.raises(ValueError, match="at least one sample"):
            AudioClip(16000, np.zeros(0, np.int16))
        with pytest.raises(ValueError, match="non-empty"):
            AudioClip.from_samples(16000, [])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip.from_samples(0, np.zeros(10))

    @pytest.mark.parametrize("pcm", [np.zeros(10), np.zeros((2, 10), dtype=np.int16),
                                     [0, 1, 2]], ids=["float", "stereo", "list"])
    def test_rejects_pcm_not_1d_int16(self, pcm):
        with pytest.raises(ValueError, match="1-D int16"):
            AudioClip(16000, pcm)

    def test_samples_immutable(self):
        clip = AudioClip.from_samples(8000, np.zeros(10))
        with pytest.raises(ValueError):
            clip.samples[0] = 1.0


class TestStyleVector:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            StyleVector(values=(0.1, 0.2), kind="prosodic")

    def test_kind_enforced(self):
        with pytest.raises(ValueError):
            StyleVector(values=(0.0,) * 8, kind="spectral")

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            StyleVector(values=(float("inf"),) + (0.0,) * 7, kind="prosodic")

    def test_int_past_float_range_is_a_value_error(self):
        """A 401-digit JSON integer made `float` raise OverflowError, which
        the corpus loader did not catch, so every corpus command crashed."""
        with pytest.raises(ValueError, match="out of range"):
            StyleVector(values=(10 ** 400,) + (0.0,) * 7, kind="prosodic")

    def test_kind_preserved(self):
        s = simple_style()
        assert s.kind == "prosodic"
        assert len(s.as_array()) == 8


class TestTurn:
    def test_none_text_rejected(self):
        with pytest.raises(ValueError):
            Turn(speaker="a", text=None)

    def test_empty_text_allowed(self):
        assert Turn(speaker="a", text="").text == ""

    def test_acoustic_style_rejected(self):
        with pytest.raises(ValueError):
            Turn(speaker="a", text="hi",
                 prosodic_style=StyleVector(values=(0.0,) * 8, kind="acoustic"))

    def test_prosodic_style_as_acoustic_rejected(self):
        with pytest.raises(ValueError):
            Turn(speaker="a", text="hi",
                 acoustic_style=StyleVector(values=(0.0,) * 8, kind="prosodic"))


class TestMakeCrop:
    def test_five_turn_k3(self):
        conv = make_conversation(n_turns=5)
        crop = make_crop(conv, 3)
        assert crop.context_turns == conv.turns[:3]
        assert crop.target_turn == conv.turns[3]
        assert crop.incoming_turn == conv.turns[2]

    def test_minimal_two_turn(self):
        conv = make_conversation(n_turns=2)
        crop = make_crop(conv, 1)
        assert crop.context_turns == (conv.turns[0],)
        assert crop.target_turn == conv.turns[1]

    def test_out_of_range(self):
        conv = make_conversation(n_turns=5)
        with pytest.raises(IndexError):
            make_crop(conv, 5)
        with pytest.raises(IndexError):
            make_crop(conv, 0)

    def test_pure(self):
        conv = make_conversation(n_turns=5)
        assert make_crop(conv, 2) == make_crop(conv, 2)


class TestContext:
    def test_context_from_turns_holds_the_turns(self):
        conv = make_conversation(n_turns=6)
        ctx = context_from_turns(list(conv.turns), {})
        assert isinstance(ctx.entries, tuple)
        assert ctx.entries == conv.turns
        assert all(e is t for e, t in zip(ctx.entries, conv.turns))

    def test_context_from_turns_requires_styles(self):
        with pytest.raises(ValueError):
            context_from_turns([Turn(speaker="a", text="hi")], {})


class TestSampleCropIndex:
    def test_two_turn_always_one(self):
        conv = make_conversation(n_turns=2)
        assert all(sample_crop_index(conv, s) == 1 for s in range(20))

    def test_deterministic(self):
        conv = make_conversation(n_turns=10)
        assert sample_crop_index(conv, 42) == sample_crop_index(conv, 42)

    def test_single_turn_rejected(self):
        conv = Conversation(id="x", turns=(Turn(speaker="a", text="hi"),))
        with pytest.raises(ValueError):
            sample_crop_index(conv, 0)

    def test_uniformity(self):
        conv = make_conversation(n_turns=10)
        counts = np.zeros(10)
        n = 100_000
        for s in range(n):
            counts[sample_crop_index(conv, s)] += 1
        assert counts[0] == 0  # index 0 never drawn
        p = 1 / 9
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts[1:] - n * p) < 3 * sigma)
