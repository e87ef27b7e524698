import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from styledialog.acoustics import acoustic_embedding, encode_style
from styledialog.cli import bundled_corpus_path
from styledialog.components import (MARKOV_EMPTY_REDRAWS, MarkovTable, ToyRecognizer,
                                    ToyResponder, ToySynthesizer, train_markov, END_TOKEN,
                                    START_TOKEN)
from styledialog.corpus import load_corpus
from styledialog.dialog import ConversationContext, StyleVector, Turn, make_crop
from styledialog.metrics import word_edit_distance
from conftest import acoustic, make_conversation, prosodic, simple_style
from oracles import perplexity_of_table, synthesize_brute


class TestRecognizer:
    def test_zero_wer_exact(self, conv):
        rec = ToyRecognizer()
        for t in conv.turns:
            assert rec.recognize(t) == t.text

    def test_target_wer_hit_exactly(self, conv):
        rec = ToyRecognizer()
        for target in (0.25, 0.5, 1.0):
            for t in conv.turns:
                out = rec.recognize(t, target_wer=target, rng_seed=3)
                n_words = len(t.text.split())
                expect = math.ceil(target * n_words) / n_words
                assert word_edit_distance(t.text.split(), out.split()) / n_words \
                    == pytest.approx(expect)

    def test_deterministic(self, conv):
        rec = ToyRecognizer()
        a = rec.recognize(conv.turns[0], target_wer=0.5, rng_seed=7)
        b = rec.recognize(conv.turns[0], target_wer=0.5, rng_seed=7)
        assert a == b

    def test_invalid_wer(self, conv):
        with pytest.raises(ValueError):
            ToyRecognizer().recognize(conv.turns[0], target_wer=1.5)


class TestResponder:
    def test_oracle_exact(self, conv):
        resp = ToyResponder()
        ctx = ConversationContext()
        for k in range(1, len(conv.turns)):
            out = resp.respond(make_crop(conv, k), ctx)
            assert out.text == conv.turns[k].text
            assert out.prosodic_style == conv.turns[k].prosodic_style

    def test_context_average(self, conv):
        ctx = ConversationContext(entries=(Turn("a", "x", prosodic_style=prosodic([0.0] * 8)),
                                           Turn("b", "y", prosodic_style=prosodic([1.0] * 8))))
        out = ToyResponder().respond(make_crop(conv, 1), ctx, style_mode="context_average")
        assert out.prosodic_style.values == (0.5,) * 8

    def test_last_same_speaker(self):
        """The target speaker's last context style, whatever the text mode:
        a speaker named "" is a name like any other."""
        s_target = prosodic([0.2] * 8)
        for speaker in ("alice", ""):
            conv = make_conversation(speakers=("bob", speaker))
            resp = ToyResponder(markov=train_markov([conv]))
            ctx = ConversationContext(entries=(
                Turn(speaker, "x", prosodic_style=s_target),
                Turn("bob", "y", prosodic_style=prosodic([0.9] * 8))))
            for mode in ("oracle", "markov"):
                out = resp.respond(make_crop(conv, 1), ctx, mode=mode,
                                   style_mode="last_same_speaker")
                assert out.prosodic_style == s_target, (speaker, mode)

    def test_empty_context_falls_back_to_reference(self, conv):
        refs = {"bob": (simple_style(0.33), acoustic([0.5] * 8))}
        ctx = ConversationContext(reference_styles=refs)
        out = ToyResponder().respond(make_crop(conv, 1), ctx, style_mode="context_average")
        assert out.prosodic_style == refs["bob"][0]

    def test_markov_requires_table(self, conv):
        with pytest.raises(RuntimeError):
            ToyResponder().respond(make_crop(conv, 1), ConversationContext(), mode="markov")

    def test_markov_deterministic(self, conv):
        resp = ToyResponder(markov=train_markov([conv]))
        a = resp.respond(make_crop(conv, 1), ConversationContext(), mode="markov", rng_seed=5)
        b = resp.respond(make_crop(conv, 1), ConversationContext(), mode="markov", rng_seed=5)
        assert a.text == b.text

    def test_unknown_modes(self, conv):
        resp = ToyResponder()
        with pytest.raises(ValueError):
            resp.respond(make_crop(conv, 1), ConversationContext(), mode="gpt5")
        with pytest.raises(ValueError):
            resp.respond(make_crop(conv, 1), ConversationContext(), style_mode="nope")


class TestMarkov:
    def test_add_one_formula(self):
        from styledialog.dialog import Conversation, Turn
        conv = Conversation(id="m", turns=(Turn(speaker="s", text="a b"),))
        table = train_markov([conv])
        v = len(table.vocab)
        assert table.probability("a", "b") == pytest.approx((1 + 1) / (1 + v))

    def test_deterministic_table(self, conv):
        t1 = train_markov([conv])
        t2 = train_markov([conv])
        assert t1.vocab == t2.vocab and t1.totals == t2.totals

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            train_markov([])

    def test_beats_uniform_perplexity(self, conv):
        table = train_markov([conv])
        ppl = perplexity_of_table(table, [conv])
        assert ppl <= len(table.vocab)  # uniform model's perplexity

    def test_first_token_distribution(self, conv):
        """A first END_TOKEN is redrawn up to MARKOV_EMPTY_REDRAWS times, so
        word w comes first with p(w) * (1 + p_end + ... + p_end^R) and the
        response is empty with p_end^(R + 1)."""
        table = train_markov([conv])
        n = 10_000
        counts = {}
        for s in range(n):
            text = table.sample(random.Random(s))
            first = text.split()[0] if text.split() else END_TOKEN
            counts[first] = counts.get(first, 0) + 1
        p_end = table.probability(START_TOKEN, END_TOKEN)
        tries = sum(p_end ** j for j in range(MARKOV_EMPTY_REDRAWS + 1))
        for w in table.vocab:
            p = (p_end ** (MARKOV_EMPTY_REDRAWS + 1) if w == END_TOKEN
                 else table.probability(START_TOKEN, w) * tries)
            sigma = math.sqrt(n * p * (1 - p))
            observed = counts.get(w, 0)
            assert abs(observed - n * p) < 4 * sigma + 1

    def test_non_empty_samples_unchanged(self, conv):
        """Redraws happen only where a sample without them is empty."""
        table = train_markov([conv])
        redrawn = 0
        for s in range(2000):
            once = _sample_without_redraws(table, random.Random(s))
            text = table.sample(random.Random(s))
            assert text
            if once:
                assert text == once
            else:
                redrawn += 1
        assert redrawn > 0

    def test_redraws_are_capped(self):
        table = MarkovTable(counts={START_TOKEN: {END_TOKEN: 5}}, totals={START_TOKEN: 5},
                            vocab=(END_TOKEN,))
        rng, twin = random.Random(3), random.Random(3)
        assert table.sample(rng) == ""
        for _ in range(MARKOV_EMPTY_REDRAWS + 1):
            twin.choices(table.vocab, weights=[1.0])
        assert rng.random() == twin.random()


def _sample_without_redraws(table, rng, max_tokens=60):
    """MarkovTable.sample without first-token redraws, which every
    non-empty sample must equal."""
    out, prev = [], START_TOKEN
    while len(out) < max_tokens:
        token = rng.choices(table.vocab,
                            weights=[table.probability(prev, w) for w in table.vocab])[0]
        if token == END_TOKEN:
            break
        out.append(token)
        prev = token
    return " ".join(out)


class TestSynthesizer:
    def test_duration_rule(self):
        synth = ToySynthesizer()
        style = prosodic([0.4, 0.02, 0.15, 0.01, 0.7, 0.1, 0.2, 1.0])  # rate 2/s
        clip = synth.synthesize(" ".join(["tok"] * 10), style, acoustic([0.3] * 8))
        assert clip.duration_seconds == pytest.approx(5.0, abs=0.03)

    def test_pitch_roundtrip_fixture(self):
        synth = ToySynthesizer()
        style = prosodic([0.44, 0.05, 0.15, 0.02, 0.75, 0.25, 0.2, 1.0])
        clip = synth.synthesize("hello there my friend how are you", style,
                                acoustic([0.0] * 8))
        got = encode_style(clip).values[0]
        assert abs(got - 0.44) <= 0.03

    def test_empty_text_rejected(self):
        synth = ToySynthesizer()
        with pytest.raises(ValueError):
            synth.synthesize("   ", simple_style(), acoustic([0.0] * 8))

    def test_kind_checks(self):
        synth = ToySynthesizer()
        with pytest.raises(ValueError):
            synth.synthesize("hi", acoustic([0.0] * 8), acoustic([0.0] * 8))
        with pytest.raises(ValueError):
            synth.synthesize("hi", simple_style(), simple_style())

    def test_deterministic(self):
        synth = ToySynthesizer()
        a = synth.synthesize("hi there", simple_style(), acoustic([0.5] * 8))
        b = synth.synthesize("hi there", simple_style(), acoustic([0.5] * 8))
        assert np.array_equal(a.samples, b.samples)

    # sha256 of the int16 samples of the 124 turns load_corpus renders from the
    # bundled corpus, recorded with the one-sine-per-harmonic synthesizer
    BUNDLED_RENDER_SHA256 = "650dd48c7055276a51c1a38fb8b563bca3267febcba6671add9a049ce1e8d33c"

    def test_bundled_corpus_renders_golden(self):
        conversations, _ = load_corpus(bundled_corpus_path())
        digest = hashlib.sha256()
        clips = 0
        for conv in conversations:
            for turn in conv.turns:
                digest.update(np.round(turn.audio.samples * 32767.0).astype(np.int16).tobytes())
                clips += 1
        assert clips == 124
        assert digest.hexdigest() == self.BUNDLED_RENDER_SHA256

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_tokens=st.integers(1, 40),
           pitch=st.sampled_from([0.0, 0.14, 0.9, 1.0]) | st.floats(0.0, 1.0),
           pitch_std=st.just(1.0) | st.floats(0.0, 1.0),
           rate=st.just(0.0) | st.floats(0.0, 1.0),
           rest=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           timbre=st.sampled_from([[0.0] * 8, [1.0] * 8])
           | st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    def test_matches_brute_force_oracle(self, n_tokens, pitch, pitch_std, rate, rest, timbre):
        """The Clenshaw sum, before quantization, against one np.sin per
        harmonic.  The oracle rounds k * phase to float64 before each sine
        (exact for k = 1, 2, 4), which moves harmonic k by up to
        k * phase * 2^-53 * w_k; over
        k = 3, 5, 6 with w_k <= 1.25 * HARMONIC_BASE this is at most
        2.8e-16 per radian of phase, which the energy scaling multiplies by
        about 2 at most.  The phase stays below 2 pi 480 Hz times the
        duration, so 1e-15 per radian of that covers the oracle's rounding."""
        text = " ".join(f"w{i}" for i in range(n_tokens))
        style = prosodic([pitch, pitch_std, rest[0], rest[1], rest[2], rate, rest[3], rest[4]])
        fast = ToySynthesizer()._signal(text, style, acoustic(timbre))
        brute = synthesize_brute(text, style, acoustic(timbre))
        assert len(fast) == len(brute)
        phase_bound = 2.0 * math.pi * 480.0 * len(brute) / 16000
        assert np.max(np.abs(fast - brute)) <= 1e-11 + 1e-15 * phase_bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n_tokens=st.integers(1, 40),
           values=st.lists(st.sampled_from([-1e308, -1.0, 0.0, 1.0, 1e308])
                           | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=16, max_size=16))
    def test_total_over_finite_styles(self, n_tokens, values):
        """Any finite styles render a non-empty clip in [-1, 1]: the HNR,
        token rate and energy the prosodic style asks for are clamped to
        what the encoder can report."""
        clip = ToySynthesizer().synthesize(" ".join(["tok"] * n_tokens),
                                           prosodic(values[:8]), acoustic(values[8:]))
        assert clip.samples.size >= 1
        assert np.all(np.isfinite(clip.samples)) and np.max(np.abs(clip.samples)) <= 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(words=st.lists(st.sampled_from(["a", "tok", "hello"]), min_size=1, max_size=60),
           values=st.lists(st.sampled_from([-1e308, -1.0, 0.0, 1.0, 1e308])
                           | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=8, max_size=8))
    def test_n_samples_is_the_rendered_length(self, words, values):
        """The length known without a render is the rendered length, also
        where the token rate is clamped."""
        text = " ".join(words)
        style = prosodic(values)
        clip = ToySynthesizer().synthesize(text, style, acoustic([0.5] * 8))
        assert ToySynthesizer.n_samples(text, style) == len(clip.samples)

    def test_timbre_separates_speakers(self):
        synth = ToySynthesizer()
        style = simple_style()
        text = "one two three four five six"
        a1 = synth.synthesize(text, style, acoustic([0.9, 0.1, 0.8, 0.2, 0.7, 0.1, 0.6, 0.3]))
        a2 = synth.synthesize(text + " ", style, acoustic([0.9, 0.1, 0.8, 0.2, 0.7, 0.1, 0.6, 0.3]))
        b = synth.synthesize(text, style, acoustic([0.05] * 8))
        same = float(acoustic_embedding(a1) @ acoustic_embedding(a2))
        cross = float(acoustic_embedding(a1) @ acoustic_embedding(b))
        assert cross < same


class TestRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_controlled_components(self, seed):
        rng = np.random.default_rng(seed)
        synth = ToySynthesizer()
        p = np.zeros(8)
        p[0] = rng.uniform(120, 350) / 500
        p[1] = rng.uniform(0.0, 0.15)
        p[2] = rng.uniform(0.05, 0.3)
        p[3] = rng.uniform(0.0, 0.1)
        p[4] = (rng.uniform(5, 35) + 20) / 60
        p[5] = rng.uniform(3, 9) / 20
        p[6] = 0.2
        p[7] = 1.0
        a = acoustic(rng.uniform(-1, 1, 8))
        clip = synth.synthesize("the quick brown fox jumps over dogs", prosodic(p), a)
        q = encode_style(clip).values
        for c in (0, 2, 4, 5):
            assert abs(q[c] - p[c]) <= 0.08
