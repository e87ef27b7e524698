"""Text-generation and statistical evaluation metrics.

These are re-implementations of the canonical formulas (word-level WER,
BLEU-4 with add-one smoothing on zero counts, ROUGE-L F1, exact-match
METEOR, greedy embedding F1) pinned against brute-force oracles in the
test suite.  All text metrics return percentages in [0, 100].
assemble_report scores both sides of a pair after one fixed normalisation,
`normalize`, the one `ingest` applies to transcripts.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import acoustics

FILLERS = frozenset({"um", "uh", "uhm", "er", "ah"})

_PUNCT = set(string.punctuation) - {"-"}


def normalize(text: str) -> str:
    """Lowercase, strip punctuation except in-word hyphens, drop FILLERS."""
    text = text.lower()
    # keep hyphens only between word characters ("than-thank")
    text = re.sub(r"(?<=\w)-(?=\w)", "\x00", text)
    text = "".join(c for c in text if c not in _PUNCT and c != "-")
    text = text.replace("\x00", "-")
    tokens = [t for t in text.split() if t not in FILLERS]
    return " ".join(tokens)


@dataclass(frozen=True)
class MetricReport:
    semantic: dict       # metric name -> percentage
    acoustic: dict       # feature name -> Pearson r or None when undefined
    speaker_similarity: float | None  # None when no pair has audio on both sides
    notes: tuple = ()


def _position_masks(words) -> dict:
    """word -> int whose bit j is set where words[j] is that word."""
    masks = {}
    for j, w in enumerate(words):
        masks[w] = masks.get(w, 0) | 1 << j
    return masks


def word_edit_distance(ref_words, hyp_words) -> int:
    """Word Levenshtein distance by Myers' (1999) bit-vector algorithm in Hyyro's
    (2001) form: one step per ref word over the DP column's vertical deltas."""
    m = len(hyp_words)
    if m == 0:
        return len(ref_words)
    peq, full, top = _position_masks(hyp_words), (1 << m) - 1, 1 << (m - 1)
    vp, vn, dist = full, 0, m
    for w in ref_words:
        eq = peq.get(w, 0)
        xv, xh = eq | vn, (((eq & vp) + vp) ^ vp) | eq
        hp, hn = (vn | ~(xh | vp)) & full, vp & xh
        dist += bool(hp & top) - bool(hn & top)
        hp, hn = ((hp << 1) | 1) & full, (hn << 1) & full  # row 0 rises by 1 per word
        vp, vn = (hn | ~(xv | hp)) & full, hp & xv
    return dist


def _ngrams(words, n):
    return Counter(tuple(words[i:i + n]) for i in range(len(words) - n + 1))


BLEU_MAX_N = 4


def bleu(refs: list[str], hyp: str) -> float:
    """BLEU with clipped n-gram precisions, add-one smoothing on zero
    counts, and the closest-reference brevity penalty; percentage."""
    if not refs or not any(r.split() for r in refs):
        raise ValueError("bleu needs at least one non-empty reference")
    hyp_words = hyp.split()
    if not hyp_words:
        return 0.0
    ref_word_lists = [r.split() for r in refs]
    log_precisions = []
    for n in range(1, BLEU_MAX_N + 1):
        hyp_ngrams = _ngrams(hyp_words, n)
        total = sum(hyp_ngrams.values())
        if total == 0:
            continue  # hypothesis shorter than n: order undefined, skipped
        max_ref = Counter()
        for ref_words in ref_word_lists:
            for gram, count in _ngrams(ref_words, n).items():
                max_ref[gram] = max(max_ref[gram], count)
        clipped = sum(min(c, max_ref[g]) for g, c in hyp_ngrams.items())
        if clipped == 0:
            p = (clipped + 1) / (total + 1)
        else:
            p = clipped / total
        log_precisions.append(math.log(p))
    geo = math.exp(sum(log_precisions) / len(log_precisions))
    c = len(hyp_words)
    r = min((abs(len(rw) - c), len(rw)) for rw in ref_word_lists)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * geo


def _lcs_len(a, b) -> int:
    """LCS length by the bit-vector recurrence of Allison and Dix (1986) in
    Hyyro's (2004) form: the zero bits of v, all at b's positions, count it."""
    peq, v = _position_masks(b), -1  # every bit set, past b's positions too
    for x in a:
        u = v & peq.get(x, 0)
        v = (v + u) | (v - u)
    return (~v).bit_count()


def rouge_l_f1(ref: str, hyp: str) -> float:
    ref_words, hyp_words = ref.split(), hyp.split()
    lcs = _lcs_len(ref_words, hyp_words)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp_words)
    r = lcs / len(ref_words)
    return 100.0 * 2 * p * r / (p + r)


def _min_chunks(hyp_words, ref_words) -> tuple[int, int]:
    """(matches, minimal chunk count) for the exact-match unigram alignment.

    Matches are fixed at sum_w min(count_hyp, count_ref); a bounded DFS
    over per-word occurrence assignments finds the chunk-minimal alignment.
    """
    ref_counts = Counter(ref_words)
    hyp_counts = Counter(hyp_words)
    quota = {w: min(hyp_counts[w], ref_counts[w]) for w in hyp_counts}
    matches = sum(quota.values())
    if matches == 0:
        return 0, 0
    ref_positions = {}
    for j, w in enumerate(ref_words):
        ref_positions.setdefault(w, []).append(j)

    best = [matches]  # upper bound: every match its own chunk

    def dfs(i, remaining_quota, used, last_ref, chunks, matched_left):
        if chunks >= best[0]:
            return
        if matched_left == 0:
            best[0] = min(best[0], chunks)
            return
        if i >= len(hyp_words):
            return
        w = hyp_words[i]
        q = remaining_quota.get(w, 0)
        skippable = hyp_counts[w] - q  # hyp occurrences of w we may leave unmatched
        if q:
            for j in ref_positions[w]:
                if j in used:
                    continue
                remaining_quota[w] = q - 1
                used.add(j)
                extend = (last_ref is not None and j == last_ref + 1)
                dfs(i + 1, remaining_quota, used, j,
                    chunks + (0 if extend else 1), matched_left - 1)
                used.discard(j)
                remaining_quota[w] = q
        if skippable > 0 or q == 0:
            hyp_counts[w] -= 1
            dfs(i + 1, remaining_quota, used, last_ref, chunks, matched_left)
            hyp_counts[w] += 1

    dfs(0, dict(quota), set(), None, 0, matches)
    del dfs  # dfs refers to itself: free its state now, not at the next cycle collection
    return matches, best[0]


def meteor_exact(ref: str, hyp: str) -> float:
    """Exact-match METEOR: F_mean = 10PR/(R+9P), chunk penalty
    0.5*(chunks/matches)^3; percentage."""
    ref_words, hyp_words = ref.split(), hyp.split()
    if not ref_words or not hyp_words:
        return 0.0
    matches, chunks = _min_chunks(hyp_words, ref_words)
    if matches == 0:
        return 0.0
    p = matches / len(hyp_words)
    r = matches / len(ref_words)
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    penalty = 0.5 * (chunks / matches) ** 3
    return 100.0 * f_mean * (1.0 - penalty)


TRIGRAM_EMBED_DIM = 64


def trigram_embedder(token: str) -> np.ndarray:
    """Hashed character-trigram profile, L2-normalized; deterministic."""
    padded = f"#{token}#"
    vec = np.zeros(TRIGRAM_EMBED_DIM)
    for i in range(len(padded) - 2):
        tri = padded[i:i + 3]
        h = 0
        for ch in tri:
            h = (h * 1000003 + ord(ch)) & 0xFFFFFFFF
        vec[h % TRIGRAM_EMBED_DIM] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


_WORD = re.compile(r"\S+")  # the words of str.split(), found one at a time


def _word_ids(text: str):
    """(the distinct words of `text` in first-seen order, each word's index
    among them), without a list of every word."""
    ids: dict[str, int] = {}
    at = np.fromiter((ids.setdefault(m.group(), len(ids)) for m in _WORD.finditer(text)),
                     dtype=np.intp)
    return list(ids), at


EMBED_BLOCK_ROWS = 256  # hyp words whose similarities to every ref word are held at once


def greedy_embed_score(ref: str, hyp: str) -> float:
    """Greedy max-cosine matching in both directions; F1 as a percentage.
    Every copy of a word has the same best match, so each distinct word is
    embedded and scored once and the maxima are read back at the word
    positions.  The similarities are taken `EMBED_BLOCK_ROWS` hyp words at a
    time, keeping each hyp word's maximum and a running maximum per ref
    word, so memory grows with the two vocabularies, not their product, and
    by one index and one value per word."""
    (ref_vocab, ref_at), (hyp_vocab, hyp_at) = _word_ids(ref), _word_ids(hyp)
    if not ref_vocab or not hyp_vocab:
        return 0.0
    hyp_vecs = np.stack([trigram_embedder(w) for w in hyp_vocab])
    ref_vecs_t = np.stack([trigram_embedder(w) for w in ref_vocab]).T
    row_max = np.empty(len(hyp_vocab))
    col_max = np.full(len(ref_vocab), -np.inf)
    for start in range(0, len(hyp_vocab), EMBED_BLOCK_ROWS):
        sims = hyp_vecs[start:start + EMBED_BLOCK_ROWS] @ ref_vecs_t
        row_max[start:start + EMBED_BLOCK_ROWS] = sims.max(axis=1)
        np.maximum(col_max, sims.max(axis=0), out=col_max)
    p = float(np.mean(row_max[hyp_at]))
    r = float(np.mean(col_max[ref_at]))
    if p + r <= 0:
        return 0.0
    return 100.0 * 2 * p * r / (p + r)


class UndefinedStatisticError(ValueError):
    pass


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length vectors of length >= 2")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        raise UndefinedStatisticError("zero variance: correlation undefined")
    return float(xd @ yd) / denom


def cosine(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("cosine needs equal dimensions")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine undefined for zero vectors")
    return float(a @ b) / (na * nb)


ACOUSTIC_FEATURES = ("pitch_mean", "pitch_std", "energy_mean", "energy_std",
                     "hnr_db", "duration_s")


def assemble_report(pairs) -> MetricReport:
    """Score (generated, ground-truth) turn pairs from an iterable, one pair
    at a time: each pair's text metrics, `summarize` and `acoustic_embedding`
    are computed when it is reached, and only their numbers are kept, so a
    generator of pairs that reads each clip when asked is scored holding one
    pair's audio at a time.

    Semantic metrics are averaged per pair on normalized text (WER uses
    pooled edit distance over pooled reference length).  Acoustic Pearson r
    pairs per-crop feature values; zero-variance cells come back as None.
    Speaker similarity is the mean embedding cosine, None when no pair
    has audio on both sides.
    """
    bleu_scores, rouge_scores, meteor_scores, embed_scores = [], [], [], []
    edits = 0
    ref_len = 0
    sims = []
    gen_summaries = []
    ref_summaries = []
    for gen, ref in pairs:
        g = normalize(gen.text)
        r = normalize(ref.text)
        bleu_scores.append(bleu([r], g) if r.split() else 0.0)
        rouge_scores.append(rouge_l_f1(r, g))
        meteor_scores.append(meteor_exact(r, g))
        embed_scores.append(greedy_embed_score(r, g))
        edits += word_edit_distance(r.split(), g.split())
        ref_len += len(r.split())
        if gen.audio is None or ref.audio is None:
            continue
        gen_summaries.append(acoustics.summarize(gen.audio))
        ref_summaries.append(acoustics.summarize(ref.audio))
        sims.append(cosine(acoustics.acoustic_embedding(gen.audio),
                           acoustics.acoustic_embedding(ref.audio)))
    if not bleu_scores:
        raise ValueError("nothing to score")
    semantic = {
        "bleu": float(np.mean(bleu_scores)),
        "rouge_l": float(np.mean(rouge_scores)),
        "meteor": float(np.mean(meteor_scores)),
        "embed_f1": float(np.mean(embed_scores)),
        "wer": 100.0 * edits / max(ref_len, 1),
    }

    acoustic = {}
    if gen_summaries:
        for feature in ACOUSTIC_FEATURES:
            gx = [getattr(s, feature) for s in gen_summaries]
            ry = [getattr(s, feature) for s in ref_summaries]
            try:
                acoustic[feature] = pearson(gx, ry)
            except ValueError:
                acoustic[feature] = None
    similarity = float(np.mean(sims)) if sims else None
    return MetricReport(semantic=semantic, acoustic=acoustic,
                        speaker_similarity=similarity)
