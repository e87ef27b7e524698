import json
import tempfile
import tracemalloc
import wave
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from styledialog.acoustics import encode_style
from styledialog.audioio import read_wav, write_wav
from styledialog.cli import bundled_corpus_path, main
from styledialog.components import ToySynthesizer
from styledialog.corpus import (MAX_SYNTH_SECONDS, CorpusIndex, SynthAudio, filter_diarization,
                                generate_synthetic_corpus, load_corpus,
                                load_corpus_with_index, save_corpus,
                                save_synthetic_corpus, strip_leading_indicator,
                                write_atomic)
from styledialog.dialog import AudioClip, Conversation, StyleVector, Turn, from_pcm, to_pcm
from styledialog.metrics import normalize
from conftest import write_empty_wav


def small_corpus_lines():
    return [
        json.dumps({"id": "c0", "split": "train", "turns": [
            {"speaker": "a", "text": "hello there", "audio": None},
            {"speaker": "b", "text": "hi friend", "audio": None},
        ]}),
        json.dumps({"id": "c1", "split": "test", "turns": [
            {"speaker": "a", "text": "one two three", "audio": None},
        ]}),
    ]


class TestLoadCorpus:
    def test_bundled_corpus_clean(self):
        conversations, rejects = load_corpus(bundled_corpus_path())
        assert len(conversations) == 20
        assert rejects == []
        for conv in conversations:
            assert 4 <= len(conv.turns) <= 8
            for turn in conv.turns:
                assert turn.audio is not None
                assert turn.prosodic_style is not None
                assert turn.acoustic_style.kind == "acoustic"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.jsonl")

    STYLES = {"prosodic_style": [0.5] * 8, "acoustic_style": [0.5] * 8}

    @pytest.mark.parametrize("record, field", [
        ({"id": "bad", "turns": [{"text": "no speaker"}]}, "speaker"),
        ({"id": "bad", "turns": [{"speaker": None, "text": None, "synth": STYLES}]},
         "speaker"),
        ({"id": "bad", "turns": [{"speaker": "a", "text": ["x", "y"]}]}, "text"),
        ({"id": 7, "turns": [{"speaker": "a", "text": "hi"}]}, "id"),
    ], ids=["speaker missing", "speaker and text null", "text a list", "id a number"])
    def test_missing_speaker_rejected_with_line(self, tmp_path, record, field):
        """A record whose id, speaker or text is missing or not a string is
        one reject; none of them is made a string."""
        lines = small_corpus_lines()
        lines.insert(1, json.dumps(record))
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(lines) + "\n")
        conversations, rejects = load_corpus(p)
        assert len(conversations) == 2
        assert len(rejects) == 1
        line_no, reason = rejects[0]
        assert line_no == 2
        assert field in reason

    def test_all_invalid_raises(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"turns": []}) + "\n")
        with pytest.raises(ValueError):
            load_corpus(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("\n" + "\n\n".join(small_corpus_lines()) + "\n\n")
        conversations, rejects = load_corpus(p)
        assert len(conversations) == 2 and rejects == []


def styles(kind):
    return st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).map(
        lambda v: StyleVector(values=tuple(v), kind=kind))


@st.composite
def corpora(draw):
    """Conversations in any mix of turns with both styles and some text,
    whose audio is their own `SynthAudio`, the `SynthAudio` of other text
    (as after normalisation) or a foreign clip, and turns lacking a style or
    the text, with a foreign clip or no audio.  A foreign clip is any
    16-bit audio of at least one sample, since a WAV with none is refused."""
    conversations = []
    for c in range(draw(st.integers(1, 3))):
        turns = []
        for i in range(draw(st.integers(1, 3))):
            text = draw(st.text(alphabet="ab é\n", max_size=12))
            prosodic = draw(st.none() | styles("prosodic"))
            acoustic = draw(st.none() | styles("acoustic"))
            if prosodic is not None and acoustic is not None and text.split():
                source = draw(st.sampled_from(["own", "edited", "foreign"]))
            else:
                source = draw(st.sampled_from(["foreign", None]))
            if source == "foreign":
                samples = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64))
                audio = AudioClip.from_samples(draw(st.sampled_from([8000, 16000, 44100])),
                                               from_pcm(to_pcm(np.asarray(samples, dtype=float))),
                                               source_id=f"c{c}/{i}")
            elif source is not None:
                audio = SynthAudio(text if source == "own" else text + " b", prosodic,
                                   acoustic, f"c{c}/{i}")
            else:
                audio = None
            turns.append(Turn(speaker=draw(st.sampled_from(["a", "b", "spk é"])), text=text,
                              audio=audio, prosodic_style=prosodic, acoustic_style=acoustic))
        conversations.append(Conversation(id=f"c{c}", turns=tuple(turns),
                                          split=draw(st.sampled_from(["train", "validation",
                                                                      "test"]))))
    return conversations


def assert_same_corpus(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.split, len(a.turns)) == (b.id, b.split, len(b.turns))
        for ta, tb in zip(a.turns, b.turns):
            assert (ta.speaker, ta.text, ta.prosodic_style, ta.acoustic_style) == \
                   (tb.speaker, tb.text, tb.prosodic_style, tb.acoustic_style)
            assert (ta.audio is None) == (tb.audio is None)
            if ta.audio is not None:
                assert (ta.audio.source_id, ta.audio.sample_rate) == \
                       (tb.audio.source_id, tb.audio.sample_rate)
                assert np.array_equal(ta.audio.samples, tb.audio.samples)


class TestSaveRoundTrip:
    @given(conversations=corpora(), write_audio=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_load_inverts_save(self, conversations, write_audio):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            save_corpus(path, conversations, write_audio=write_audio)
            reloaded, rejects = load_corpus(path)
        assert rejects == []
        assert_same_corpus(reloaded, conversations)

    def test_synth_backed_turns_write_no_wav(self, tmp_path):
        conversations, _ = generate_synthetic_corpus(1, seed=7)
        save_corpus(tmp_path / "c.jsonl", conversations)
        assert not (tmp_path / "audio").exists()
        wav_backed = [Turn(speaker=t.speaker, text=t.text, audio=t.audio,
                           prosodic_style=t.prosodic_style) for t in conversations[0].turns]
        save_corpus(tmp_path / "c.jsonl", [Conversation(id="w", turns=wav_backed)])
        assert len(list((tmp_path / "audio").iterdir())) == len(wav_backed)

    def test_text_round_trip(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(small_corpus_lines()) + "\n")
        conversations, _ = load_corpus(p)
        out = tmp_path / "copy.jsonl"
        save_corpus(out, conversations)
        reloaded, _ = load_corpus(out)
        assert [(c.id, c.split, [(t.speaker, t.text) for t in c.turns])
                for c in reloaded] == \
               [(c.id, c.split, [(t.speaker, t.text) for t in c.turns])
                for c in conversations]

    def test_audio_round_trip(self, tmp_path):
        conversations, records = generate_synthetic_corpus(1, seed=7)
        out = tmp_path / "c.jsonl"
        save_corpus(out, conversations, write_audio=True)
        reloaded, _ = load_corpus(out)
        for a, b in zip(conversations[0].turns, reloaded[0].turns):
            assert np.array_equal(a.audio.samples, b.audio.samples)

    def test_failed_write_atomic_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "adir").mkdir()
        with pytest.raises(OSError):
            write_atomic(tmp_path / "adir", "text")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]


@contextmanager
def counting_renders():
    """The texts `ToySynthesizer.synthesize` renders inside the block."""
    texts = []
    synthesize = ToySynthesizer.synthesize
    with patch.object(ToySynthesizer, "synthesize",
                      lambda self, *args: texts.append(args[0]) or synthesize(self, *args)):
        yield texts


class TestSelectiveRender:
    @given(conversations=corpora(), write_audio=st.booleans(),
           picks=st.frozensets(st.integers(0, 8)), ghost=st.booleans())
    # covers, on every run, a synth-backed turn left out of S
    @example(conversations=generate_synthetic_corpus(1, seed=7)[0], write_audio=False,
             picks=frozenset({0}), ghost=True)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_renders_only_what_is_asked(self, conversations, write_audio, picks, ghost):
        """Asking for a set S of (conversation id, turn index) pairs
        changes one thing: which synth-backed clips `load_corpus` renders.
        It renders those in S, each once; the others carry an unrendered
        `SynthAudio`.  `audio_for` gets the very turns the load returns, and
        the rejects and every turn's audio read as in a full load."""
        ids = [(c.id, i) for c in conversations for i in range(len(c.turns))]
        wanted = {ids[p % len(ids)] for p in picks} | ({("ghost", 0)} if ghost else set())
        asked = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            save_corpus(path, conversations, write_audio=write_audio)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"id": "bad", "turns": [{"text": "no speaker"}]}) + "\n")
            records = [json.loads(line) for line in path.read_text().splitlines()]
            full, full_rejects = load_corpus(path)
            with counting_renders() as rendered:
                part, part_rejects = load_corpus(path, audio_for=lambda convs: asked.append(convs)
                                                 or wanted)
        synth_backed = {(rec["id"], i) for rec in records[:-1]
                        for i, t in enumerate(rec["turns"])
                        if t["audio"] is None and t["text"].split()
                        and len(t.get("synth", {})) == 2}
        assert len(asked) == 1
        seen, returned = ([t for c in convs for t in c.turns] for convs in (asked[0], part))
        assert len(seen) == len(returned) and all(a is b for a, b in zip(seen, returned))
        assert part_rejects == full_rejects and len(full_rejects) == 1
        held = {(c.id, i): t.audio for c in part for i, t in enumerate(c.turns)}
        assert {key for key, audio in held.items() if isinstance(audio, SynthAudio)} == synth_backed
        assert {key for key in synth_backed if "pcm" in vars(held[key])} == synth_backed & wanted
        assert len(rendered) == len(synth_backed & wanted)
        assert_same_corpus(part, full)


def write_pcm_wav(path, ints):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(ints.tobytes())


class TestReadWav:
    def test_most_negative_sample_loads(self, tmp_path):
        # 16-bit PCM can hold -32768, one step below -32767 (= -1.0)
        ints = np.array([-32768, -32767, 0, 16384, 32767], dtype=np.int16)
        path = tmp_path / "full_scale.wav"
        write_pcm_wav(path, ints)
        clip = read_wav(path)
        assert clip.samples[0] == -1.0
        assert np.array_equal(clip.samples[1:], from_pcm(to_pcm(ints[1:] / 32767.0)))
        (tmp_path / "c.jsonl").write_text(json.dumps({"id": "c", "turns": [
            {"speaker": "a", "text": "hi", "audio": "full_scale.wav"}]}) + "\n")
        conversations, rejects = load_corpus(tmp_path / "c.jsonl")
        assert rejects == [] and conversations[0].turns[0].audio.samples[0] == -1.0

    def test_ingest_copies_pcm_exactly(self, tmp_path, capsys):
        """`ingest --write-audio` writes a WAV's PCM as it read it: -32768
        is not mapped to -32767 through floats."""
        ints = np.array([-32768, -32767, -1, 0, 1, 16384, 32767], dtype=np.int16)
        write_pcm_wav(tmp_path / "full_scale.wav", ints)
        (tmp_path / "c.jsonl").write_text(json.dumps({"id": "c", "turns": [
            {"speaker": "a", "text": "hi", "audio": "full_scale.wav"}]}) + "\n")
        assert main(["ingest", "--corpus", str(tmp_path / "c.jsonl"),
                     "--out", str(tmp_path / "out"), "--write-audio"]) == 0
        with wave.open(str(tmp_path / "out" / "audio" / "c_0.wav"), "rb") as fh:
            assert np.array_equal(np.frombuffer(fh.readframes(fh.getnframes()), np.int16), ints)

    def test_sub_khz_rate_is_a_reject(self, tmp_path):
        """Analysis needs at least 2 * F_MAX_HZ samples per second, so an
        800 Hz WAV is refused when it is read, as one reject."""
        write_wav(tmp_path / "low.wav", AudioClip.from_samples(800, np.zeros(800)))
        with pytest.raises(ValueError, match="sample rate 800 Hz"):
            read_wav(tmp_path / "low.wav")
        (tmp_path / "c.jsonl").write_text("\n".join(json.dumps({"id": cid, "turns": [
            {"speaker": "a", "text": "hi", "audio": wav}]}) for cid, wav in
            (("low", "low.wav"), ("text", None))) + "\n")
        conversations, rejects = load_corpus(tmp_path / "c.jsonl")
        assert [c.id for c in conversations] == ["text"]
        assert len(rejects) == 1 and "sample rate 800 Hz" in rejects[0][1]

    @pytest.mark.parametrize("content", [b"notawav", b"", b"RIFF\x04\x00\x00\x00WAVE",
                                         b"RIFX\x04\x00\x00\x00WAVE"],
                             ids=["not riff", "empty", "no chunks", "rifx"])
    def test_unreadable_wav_is_a_reject(self, tmp_path, content):
        """A file that is not a WAV raised EOFError or wave.Error, which
        sank the whole load; now its record is one reject."""
        (tmp_path / "bad.wav").write_bytes(content)
        with pytest.raises(ValueError, match="not a readable WAV file"):
            read_wav(tmp_path / "bad.wav")
        (tmp_path / "c.jsonl").write_text("\n".join(json.dumps({"id": cid, "turns": [
            {"speaker": "a", "text": "hi", "audio": wav}]}) for cid, wav in
            (("text", None), ("bad", "bad.wav"))) + "\n")
        conversations, rejects = load_corpus(tmp_path / "c.jsonl")
        assert [c.id for c in conversations] == ["text"]
        assert [line for line, _ in rejects] == [2]
        assert "not a readable WAV file" in rejects[0][1]

    def test_no_frames_is_a_reject(self, tmp_path):
        """A 0-frame WAV loaded, then crashed the analysis of any command
        that read it; now it is refused where it is read."""
        write_empty_wav(tmp_path / "empty.wav")
        with pytest.raises(ValueError, match="holds no audio frames"):
            read_wav(tmp_path / "empty.wav")

    def test_write_read_bit_identical_to_quantize(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 1001)
        write_wav(tmp_path / "x.wav", AudioClip.from_samples(16000, x))
        assert np.array_equal(read_wav(tmp_path / "x.wav").samples, from_pcm(to_pcm(x)))


class TestDiarizationFilter:
    def test_two_speakers_discarded(self):
        assert filter_diarization("[S1] hello [S2] hi") is False

    def test_repeated_same_speaker_kept(self):
        assert filter_diarization("[S1] hello [S1] again") is True

    def test_no_indicator_kept(self):
        assert filter_diarization("plain text") is True

    def test_strip_leading(self):
        assert strip_leading_indicator("[S1] hello there") == ("hello there", True)
        assert strip_leading_indicator("hello there") == ("hello there", False)

    def test_strip_idempotent(self):
        text, stripped = strip_leading_indicator("[S2] once")
        assert strip_leading_indicator(text) == (text, False)


class TestNormalizeVerbatim:
    def test_fixture_sentence(self):
        assert normalize("Um, How are you today?") == "how are you today"

    def test_hyphen_restart(self):
        assert normalize("Than-Thank you!") == "than-thank you"

    def test_empty(self):
        assert normalize("") == ""


class TestSyntheticCorpus:
    def test_seed_determinism_byte_identical(self, tmp_path):
        a, ra = generate_synthetic_corpus(2, seed=99)
        b, rb = generate_synthetic_corpus(2, seed=99)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_synthetic_corpus(pa, a, ra)
        save_synthetic_corpus(pb, b, rb)
        assert pa.read_bytes() == pb.read_bytes()
        for ca, cb in zip(a, b):
            for ta, tb in zip(ca.turns, cb.turns):
                assert np.array_equal(ta.audio.samples, tb.audio.samples)

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic_corpus(1, seed=1)
        b, _ = generate_synthetic_corpus(1, seed=2)
        assert [t.text for t in a[0].turns] != [t.text for t in b[0].turns]

    def test_bundled_file_matches_generator(self, tmp_path):
        conversations, records = generate_synthetic_corpus(20, seed=413)
        regen = tmp_path / "regen.jsonl"
        save_synthetic_corpus(regen, conversations, records)
        assert regen.read_bytes() == bundled_corpus_path().read_bytes()

    def test_audio_style_self_consistency(self):
        conversations, _ = generate_synthetic_corpus(3, seed=21)
        checked = 0
        for conv in conversations:
            for turn in conv.turns:
                measured = encode_style(turn.audio).values
                stated = turn.prosodic_style.values
                for c in (0, 2):
                    assert abs(measured[c] - stated[c]) <= 0.1
                checked += 1
        assert checked >= 12

    def test_within_speaker_variance_below_between(self):
        conversations, _ = generate_synthetic_corpus(8, seed=33)
        speaker_means = []
        within = []
        for conv in conversations:
            by_speaker = {}
            for turn in conv.turns:
                by_speaker.setdefault(turn.speaker, []).append(
                    np.array(turn.prosodic_style.values))
            for styles in by_speaker.values():
                arr = np.stack(styles)
                speaker_means.append(arr.mean(axis=0))
                if len(styles) > 1:
                    within.append(arr.std(axis=0).mean())
        between = np.stack(speaker_means).std(axis=0).mean()
        assert np.mean(within) < between

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(0, seed=1)


class TestLazySynthAudio:
    @pytest.fixture
    def synth_calls(self):
        with counting_renders() as texts:
            yield texts

    def test_renders_once_on_first_read(self, synth_calls):
        conversations, _ = generate_synthetic_corpus(20, seed=413)
        turns = [t for c in conversations for t in c.turns]
        for turn in turns:
            assert turn.audio.sample_rate == 16000 and turn.audio.duration_seconds > 0
            assert turn.audio.source_id is not None
        assert synth_calls == []
        first = [turn.audio.samples for turn in turns]
        assert synth_calls == [t.text for t in turns]
        pcm = [turn.audio.pcm for turn in turns]
        for p, samples, turn in zip(pcm, first, turns):
            assert p.dtype == np.int16 and not p.flags.writeable
            assert p is turn.audio.pcm
            again = turn.audio.samples
            assert np.array_equal(again, samples)
            assert not (again.flags.writeable or samples.flags.writeable)
        assert len(synth_calls) == len(turns) == 124

    def test_matches_what_the_loader_renders(self, tmp_path):
        """Lazy clips of the bundled regeneration equal, bit for bit, those
        `load_corpus` renders from the saved file, and their durations are
        the rendered ones."""
        conversations, records = generate_synthetic_corpus(20, seed=413)
        path = tmp_path / "regen.jsonl"
        save_synthetic_corpus(path, conversations, records)
        loaded, _ = load_corpus(path)
        for lazy, eager in zip(conversations, loaded):
            for a, b in zip(lazy.turns, eager.turns, strict=True):
                assert (a.audio.source_id, a.audio.sample_rate, a.audio.duration_seconds) == \
                       (b.audio.source_id, b.audio.sample_rate, b.audio.duration_seconds)
                assert np.array_equal(a.audio.samples, b.audio.samples)


class TestSynthLengthCap:
    SYNTH = {"prosodic_style": [0.4, 0.05, 0.1, 0.02, 0.6, 0.3, 0.05, 0.95],
             "acoustic_style": [0.5] * 8}

    def test_over_long_turn_is_a_reject_and_never_renders(self, tmp_path):
        """A 20 000-word synth-backed turn would render 56 minutes of audio
        (53 M samples, 430 MB as float64).  It is sized from its text and
        refused before any render, while the load renders the rest."""
        (tmp_path / "c.jsonl").write_text("\n".join(json.dumps({"id": cid, "turns": [
            {"speaker": "a", "text": text, "audio": None, "synth": self.SYNTH}]})
            for cid, text in (("long", " ".join(["word"] * 20000)), ("short", "hi there")))
            + "\n")
        with counting_renders() as texts:
            conversations, rejects = load_corpus(tmp_path / "c.jsonl")
        assert texts == ["hi there"]
        assert [c.id for c in conversations] == ["short"]
        assert [line for line, _ in rejects] == [1]
        assert f"over the {MAX_SYNTH_SECONDS} s cap" in rejects[0][1]


class TestLoadedAudioMemory:
    """Loaded audio is held as 16-bit PCM, whether rendered from a turn's
    text and styles or read from a WAV: about 2 bytes per sample, where
    float64 samples took 8."""

    @staticmethod
    def bytes_per_sample(path) -> float:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            conversations, _ = load_corpus(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_samples = sum(round(t.audio.duration_seconds * t.audio.sample_rate)
                        for c in conversations for t in c.turns)
        return held / n_samples

    def test_under_3_bytes_per_sample(self, tmp_path, capsys):
        conversations, records = generate_synthetic_corpus(3, seed=5)
        synth = tmp_path / "synth.jsonl"
        save_synthetic_corpus(synth, conversations, records)
        assert main(["ingest", "--corpus", str(synth), "--out", str(tmp_path / "wav"),
                     "--write-audio"]) == 0
        assert self.bytes_per_sample(synth) < 3
        assert self.bytes_per_sample(tmp_path / "wav" / "corpus.jsonl") < 3


class TestCorpusIndex:
    def test_reference_styles_mean(self):
        conversations, index, _ = load_corpus_with_index(bundled_corpus_path())
        conv = conversations[0]
        refs = index.reference_styles(conv.id)
        speakers = {t.speaker for t in conv.turns}
        assert set(refs) == speakers
        spk = conv.turns[0].speaker
        own = [np.array(t.prosodic_style.values) for t in conv.turns
               if t.speaker == spk]
        want = np.mean(own, axis=0)
        assert np.allclose(refs[spk][0].as_array(), want)
        assert refs[spk][1].kind == "acoustic"

    def test_acoustic_style_from_the_turns(self):
        a1, a2, b = (StyleVector(values=(v,) * 8, kind="acoustic") for v in (0.1, 0.2, 0.3))
        p = StyleVector(values=(0.5,) * 8, kind="prosodic")
        conv = Conversation(id="c", turns=(
            Turn(speaker="a", text="one", prosodic_style=p, acoustic_style=a1),
            Turn(speaker="b", text="two", prosodic_style=p, acoustic_style=b),
            Turn(speaker="a", text="three", prosodic_style=p, acoustic_style=a2),
            Turn(speaker="b", text="four", prosodic_style=p)))
        refs = CorpusIndex([conv]).reference_styles("c")
        assert refs["a"][1] == a2  # the speaker's last turn wins
        assert refs["b"][1] == b

    def test_unknown_acoustic_style(self):
        """A speaker with a prosodic style but no acoustic style has no reference."""
        conversations, _ = generate_synthetic_corpus(1, seed=3)
        conv = conversations[0]
        ghost = replace(conv.turns[0], speaker="ghost", acoustic_style=None)
        index = CorpusIndex([replace(conv, turns=conv.turns + (ghost,))])
        with pytest.raises(KeyError, match="no acoustic style for 'ghost'"):
            index.reference_styles(conv.id)
