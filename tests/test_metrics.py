import functools
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from styledialog.metrics import (ACOUSTIC_FEATURES, EMBED_BLOCK_ROWS, MetricReport,
                                 UndefinedStatisticError, _lcs_len, aggregate,
                                 assemble_report, bleu, cosine, greedy_embed_score,
                                 meteor_exact, normalize, pearson, rouge_l_f1, score_pair,
                                 trigram_embedder, word_edit_distance)
from conftest import sine_clip
from oracles import (bleu_brute, cosine_brute, edit_distance_brute,
                     greedy_embed_brute, lcs_brute, meteor_brute, pearson_brute,
                     rouge_l_brute)

VOCAB = ["a", "b", "cat", "dog", "the", "run", "sat", "mat"]


def random_sentence(rng, max_len=8, min_len=1):
    n = int(rng.integers(min_len, max_len + 1))
    return " ".join(rng.choice(VOCAB) for _ in range(n))


class TestNormalization:
    def test_lowercase_and_punct(self):
        assert normalize("Hello, World!") == "hello world"

    def test_hyphen_preserved(self):
        assert normalize("Than-Thank you!") == "than-thank you"

    def test_fillers_dropped(self):
        assert normalize("um hello uh there") == "hello there"


def report_wer(ref: str, hyp: str) -> float:
    """The report's WER, in percent, of one (generated, reference) pair."""
    return assemble_report([(_pair(hyp), _pair(ref))]).semantic["wer"]


class TestWer:
    def test_single_substitution(self):
        assert word_edit_distance(["hello", "world"], ["hello", "word"]) == 1
        assert report_wer("hello world", "hello word") == pytest.approx(50.0)

    def test_filler_free_match(self):
        assert report_wer("um hello", "hello") == 0.0

    def test_empty_reference(self):
        # the pooled reference length counts as at least one word
        assert report_wer("", "") == 0.0
        assert report_wer("", "two words") == 200.0

    def test_can_exceed_one(self):
        assert report_wer("a", "x y z") == 300.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            ref = random_sentence(rng)
            hyp = random_sentence(rng, min_len=0) or "x"
            assert word_edit_distance(ref.split(), hyp.split()) \
                == edit_distance_brute(ref.split(), hyp.split())


class TestBleu:
    def test_identical(self):
        assert bleu(["the cat sat on the mat here"], "the cat sat on the mat here") \
            == pytest.approx(100.0)

    def test_clipping(self):
        # "the" appears twice in the reference at most once per position window
        score = bleu(["the cat"], "the the the the")
        brute = bleu_brute(["the cat"], "the the the the")
        assert score == pytest.approx(brute, abs=1e-9)
        assert score < 50.0

    def test_empty_hypothesis(self):
        assert bleu(["the cat"], "") == 0.0

    def test_multiple_references_uses_best(self):
        hyp = "the dog ran"
        single = bleu(["the cat sat"], hyp)
        multi = bleu(["the cat sat", "the dog ran"], hyp)
        assert multi == pytest.approx(100.0)
        assert multi > single

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            refs = [random_sentence(rng) for _ in range(int(rng.integers(1, 3)))]
            hyp = random_sentence(rng)
            assert bleu(refs, hyp) == pytest.approx(bleu_brute(refs, hyp), abs=1e-7)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        s = bleu([random_sentence(rng)], random_sentence(rng))
        assert 0.0 <= s <= 100.0 + 1e-9


class TestRougeL:
    def test_fixture(self):
        assert rouge_l_f1("the cat sat", "the cat") == pytest.approx(80.0)

    def test_identical(self):
        assert rouge_l_f1("a b c", "a b c") == pytest.approx(100.0)

    def test_disjoint(self):
        assert rouge_l_f1("a b", "x y") == 0.0

    def test_empty(self):
        assert rouge_l_f1("", "a") == 0.0
        assert rouge_l_f1("a", "") == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            ref, hyp = random_sentence(rng), random_sentence(rng)
            assert rouge_l_f1(ref, hyp) == pytest.approx(rouge_l_brute(ref, hyp),
                                                         abs=1e-7)


WORD_LISTS = st.one_of(
    st.lists(st.sampled_from(VOCAB), max_size=70),  # past one 64-bit word of positions
    st.lists(st.sampled_from(["yeah", "the"]), max_size=40),
    st.builds(lambda word, k: [word] * k, st.sampled_from(VOCAB), st.integers(0, 40)))


class TestBitParallelDistances:
    """WER's edit distance and ROUGE-L's LCS take one big-int step per ref
    word over masks of the hyp words' positions."""

    @settings(max_examples=200, deadline=None)
    @given(ref=WORD_LISTS, hyp=WORD_LISTS)
    def test_match_oracles(self, ref, hyp):
        assert word_edit_distance(ref, hyp) == edit_distance_brute(ref, hyp)
        assert _lcs_len(ref, hyp) == lcs_brute(ref, hyp)

    @pytest.mark.parametrize("distance", [word_edit_distance, _lcs_len])
    def test_2000_word_pair(self, distance):
        """A quadratic DP took over a second on this pair."""
        rng = np.random.default_rng(9)
        vocab = [f"word{i}" for i in range(30)]
        ref, hyp = (rng.choice(vocab, size=2000).tolist() for _ in range(2))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            distance(ref, hyp)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.25


class TestMeteor:
    def test_identical_five_words(self):
        s = meteor_exact("a b cat dog run", "a b cat dog run")
        # one chunk over five matches: penalty 0.5 * (1/5)^3
        assert s == pytest.approx(100.0 * (1 - 0.5 * 0.2 ** 3))
        assert s == pytest.approx(99.6)

    def test_full_fragmentation(self):
        # every match its own chunk: penalty 0.5, p = r = 1
        assert meteor_exact("a b cat dog", "b a dog cat") == pytest.approx(50.0)

    def test_no_overlap(self):
        assert meteor_exact("a b", "cat dog") == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            ref, hyp = random_sentence(rng, 7), random_sentence(rng, 7)
            assert meteor_exact(ref, hyp) == pytest.approx(meteor_brute(ref, hyp),
                                                           abs=1e-7)


class TestEmbedScore:
    def test_unit_norm_embeddings(self):
        for tok in ("hello", "a", "than-thank"):
            assert np.linalg.norm(trigram_embedder(tok)) == pytest.approx(1.0)

    def test_deterministic(self):
        assert np.array_equal(trigram_embedder("word"), trigram_embedder("word"))

    def test_identical_sentences(self):
        assert greedy_embed_score("the cat sat", "the cat sat") == pytest.approx(100.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            ref, hyp = random_sentence(rng), random_sentence(rng)
            want = greedy_embed_brute(ref, hyp, trigram_embedder)
            assert greedy_embed_score(ref, hyp) == pytest.approx(want, abs=1e-7)

    def test_words_are_those_of_split(self):
        """Every whitespace character str.split() breaks on separates words."""
        ref, hyp = "the\x1ccat\u3000sat \xa0on\tthe\nmat\r", "a\x0bcat sat\x85down"
        want = greedy_embed_brute(ref, hyp, trigram_embedder)
        assert greedy_embed_score(ref, hyp) == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("n_hyp_words", [EMBED_BLOCK_ROWS, EMBED_BLOCK_ROWS + 1,
                                             2 * EMBED_BLOCK_ROWS + 7])
    def test_matches_brute_force_across_blocks(self, n_hyp_words):
        """A hyp vocabulary that fills one block, spills one word into a
        second, or ends in a part block, each word said twice."""
        rng = np.random.default_rng(n_hyp_words)
        hyp_vocab = [f"h{i}w" for i in range(n_hyp_words)]
        hyp = " ".join(rng.permutation(hyp_vocab * 2))
        ref = " ".join(rng.choice(hyp_vocab[:20] + ["cat", "hwx", "w1"], size=30))
        want = greedy_embed_brute(ref, hyp, functools.cache(trigram_embedder))
        assert greedy_embed_score(ref, hyp) == pytest.approx(want, abs=1e-7)

    @staticmethod
    def _peak_bytes(ref, hyp) -> int:
        tracemalloc.start()
        try:
            greedy_embed_score(ref, hyp)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded_by_vocabulary(self):
        """A 20 000-word pair over a 30-word vocabulary: a word-by-word
        similarity matrix would take 3.2 GB."""
        rng = np.random.default_rng(8)
        vocab = [f"word{i}" for i in range(30)]
        ref, hyp = (" ".join(rng.choice(vocab, size=20_000)) for _ in range(2))
        assert self._peak_bytes(ref, hyp) < 1_000_000

    def test_memory_grows_linearly_with_vocabularies(self):
        """4000 distinct words a side peak at most 2.5x 2000 a side.  The
        whole vocabulary-by-vocabulary matrix grew about 4x per doubling:
        34 MB at 2000 a side, 133 MB at 4000."""
        def peak(n):
            return self._peak_bytes(" ".join(f"r{i}x" for i in range(n)),
                                    " ".join(f"h{i}y" for i in range(n)))
        assert peak(4000) <= 2.5 * peak(2000)


class TestPearson:
    def test_perfect_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_zero_variance(self):
        with pytest.raises(UndefinedStatisticError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = rng.normal(size=n).tolist()
            y = rng.normal(size=n).tolist()
            assert pearson(x, y) == pytest.approx(pearson_brute(x, y), abs=1e-9)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_bounded_and_affine_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        r = pearson(x, y)
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
        assert pearson(3.0 * x + 2.0, y) == pytest.approx(r, abs=1e-9)


class TestCosine:
    def test_parallel(self):
        assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            cosine([0.0, 0.0], [1.0, 1.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 16))
            a = rng.normal(size=n).tolist()
            b = rng.normal(size=n).tolist()
            assert cosine(a, b) == pytest.approx(cosine_brute(a, b), abs=1e-9)


def _pair(text, audio=None):
    return SimpleNamespace(text=text, audio=audio)


class TestAssembleReport:
    def test_empty(self):
        with pytest.raises(ValueError):
            assemble_report([])

    def test_perfect_text_only(self):
        gen = [_pair("the cat sat"), _pair("a dog ran")]
        report = assemble_report(zip(gen, gen))
        assert report.semantic["bleu"] == pytest.approx(100.0)
        assert report.semantic["wer"] == 0.0
        assert report.acoustic == {}
        assert report.speaker_similarity is None

    def test_normalises_both_sides(self):
        report = assemble_report([(_pair("Um, The cat sat!"), _pair("the cat sat"))])
        assert report.semantic["bleu"] == pytest.approx(100.0)
        assert report.semantic["wer"] == 0.0

    def test_pooled_wer(self):
        gen = [_pair("a b"), _pair("cat dog run")]
        ref = [_pair("a x"), _pair("cat dog run")]
        report = assemble_report(zip(gen, ref))
        assert report.semantic["wer"] == pytest.approx(100.0 * 1 / 5)

    def test_zero_variance_cells_none(self):
        clips = [sine_clip(220.0, 1.0, source_id=f"z/{i}") for i in range(2)]
        gen = [_pair("a", clips[0]), _pair("b", clips[1])]
        report = assemble_report(zip(gen, gen))
        # identical fixed-duration sines: every feature is constant across
        # pairs, so every correlation cell is undefined
        assert set(report.acoustic) == set(ACOUSTIC_FEATURES)
        assert all(v is None for v in report.acoustic.values())
        assert report.speaker_similarity == pytest.approx(1.0)

    def test_varying_audio_perfect_correlation(self):
        clips = [sine_clip(f, d, source_id=f"v/{f}")
                 for f, d in ((150.0, 0.8), (250.0, 1.2), (380.0, 1.6))]
        gen = [_pair("a", c) for c in clips]
        report = assemble_report(zip(gen, gen))
        for feat in ("pitch_mean", "duration_s"):
            assert report.acoustic[feat] == pytest.approx(1.0)


def _row(edits=0, ref_words=1, summaries=None, cosine=None, **semantic):
    """A `score_pair` row built by hand: its semantic scores default to 0."""
    return dict.fromkeys(("bleu", "rouge_l", "meteor", "embed_f1"), 0.0) | semantic | {
        "edits": edits, "ref_words": ref_words, "summaries": summaries, "cosine": cosine}


def _heard(gen_pitch, ref_pitch, gen_energy, ref_energy, cos):
    """A row with audio on both sides; every feature but pitch_mean and
    energy_mean is 1.0 on both sides."""
    def summary(pitch, energy):
        return SimpleNamespace(**dict.fromkeys(ACOUSTIC_FEATURES, 1.0)
                               | {"pitch_mean": pitch, "energy_mean": energy})
    return _row(summaries=(summary(gen_pitch, gen_energy), summary(ref_pitch, ref_energy)),
                cosine=cos)


class TestAggregate:
    def test_no_rows(self):
        with pytest.raises(ValueError, match="nothing to score"):
            aggregate([])

    def test_wer_is_pooled_not_averaged(self):
        # 4 edits over 20 reference words; the mean of 75 % and 6.25 % is 40.6
        report = aggregate([_row(edits=3, ref_words=4), _row(edits=1, ref_words=16)])
        assert report.semantic["wer"] == 20.0

    def test_semantic_means_in_key_order(self):
        report = aggregate([_row(bleu=10.0, rouge_l=20.0, meteor=30.0, embed_f1=40.0),
                            _row(bleu=30.0, rouge_l=40.0, meteor=50.0, embed_f1=60.0)])
        assert report.semantic == {"bleu": 20.0, "rouge_l": 30.0, "meteor": 40.0,
                                   "embed_f1": 50.0, "wer": 0.0}
        assert list(report.semantic) == ["bleu", "rouge_l", "meteor", "embed_f1", "wer"]

    def test_unheard_rows_left_out_of_acoustics(self):
        report = aggregate([_heard(1.0, 2.0, 1.0, 3.0, 0.5), _row(),
                            _heard(2.0, 4.0, 2.0, 2.0, 0.75), _row(),
                            _heard(3.0, 6.0, 3.0, 1.0, 1.0)])
        assert report.acoustic["pitch_mean"] == 1.0
        assert report.acoustic["energy_mean"] == -1.0
        # every other feature is 1.0 in each heard row: zero variance
        assert [f for f, r in report.acoustic.items() if r is None] == \
            [f for f in ACOUSTIC_FEATURES if f not in ("pitch_mean", "energy_mean")]
        assert report.speaker_similarity == 0.75

    def test_one_heard_row_gives_no_correlation(self):
        report = aggregate([_row(), _heard(1.0, 2.0, 1.0, 3.0, 0.5)])
        assert report.acoustic == dict.fromkeys(ACOUSTIC_FEATURES)
        assert report.speaker_similarity == 0.5

    def test_no_heard_row(self):
        report = aggregate([_row(), _row()])
        assert report.acoustic == {} and report.speaker_similarity is None

    def test_score_pair_without_reference_audio_or_words(self):
        """A reference whose text normalises to nothing scores BLEU 0, and a
        side without audio leaves the row's acoustics None."""
        row = score_pair(_pair("the cat sat", sine_clip(220.0, 0.5)), _pair("Um, uh!"))
        assert list(row) == ["bleu", "rouge_l", "meteor", "embed_f1", "edits", "ref_words",
                             "summaries", "cosine"]
        assert row["bleu"] == 0.0
        assert (row["edits"], row["ref_words"]) == (3, 0)
        assert row["summaries"] is None and row["cosine"] is None
