"""Benchmark work that runs inside the program's own process.

The benchmark process never imports styledialog: on Linux a child's peak
RSS from os.wait4 includes its parent's RSS at fork, so a parent holding a
rendered corpus would hide the CLI's own peak.  Building a workload's inputs
and probing layers directly therefore happen in this child.

    python bench/inproc.py inputs WORKLOAD SEED OUT_DIR REPEATS
    python bench/inproc.py probe CORPUS SEED CROPS SECONDS

Each prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import sys
import time
from pathlib import Path

import numpy

import styledialog
from styledialog import acoustics, corpus, prompts
from styledialog.dialog import (Conversation, ConversationContext, Turn, context_from_turns,
                                make_crop, sample_crop_index)

from layers import PROBE_SPANS, install, probe_metrics
from tracer import Tracer
from workloads import CALIBRATION, WORKLOADS

# Disfluent verbatim speech.  Words are drawn with Zipf weights (1/rank,
# most frequent first), as word frequencies in conversation fall off, and
# immediate repeats ("yeah yeah", "the the") are added.  Frequent repeated
# words give METEOR's chunk search many equal-cost alignments.
VERBATIM_VOCAB = (
    "yeah", "the", "i", "you", "know", "so", "and", "it", "was", "like",
    "that", "we", "just", "really", "but", "okay", "right", "well", "a",
    "to", "of", "in", "is", "think", "mean", "this", "they", "not", "oh",
    "good",
)
VERBATIM_WEIGHTS = tuple(1.0 / rank for rank in range(1, len(VERBATIM_VOCAB) + 1))
VERBATIM_REPEAT_P = 0.2


def verbatim_text(rng: random.Random) -> str:
    words = []
    for _ in range(rng.randint(20, 50)):
        if words and rng.random() < VERBATIM_REPEAT_P:
            words.append(words[-1])
        else:
            words.append(rng.choices(VERBATIM_VOCAB, weights=VERBATIM_WEIGHTS)[0])
    return " ".join(words)


def build_inputs(workload, seed: int, out: Path) -> dict:
    """Generate and save one workload's inputs; returns what the benchmark
    needs to know about them."""
    t0 = time.perf_counter()
    conversations, records = corpus.generate_synthetic_corpus(workload.n_conversations, seed)
    generate_s = time.perf_counter() - t0
    audio_s = sum(t.audio.duration_seconds for c in conversations for t in c.turns)
    components = None
    if workload.name == "verbatim-markov":
        rng = random.Random(f"verbatim:{seed}")
        conversations = [
            Conversation(id=c.id, split=c.split, turns=tuple(
                Turn(speaker=t.speaker, text=verbatim_text(rng),
                     prosodic_style=t.prosodic_style) for t in c.turns))
            for c in conversations]
        audio_s = None  # rendered from the new text only when the CLI loads it
        config = json.loads(CALIBRATION.read_text(encoding="utf-8"))
        config.pop("_comment", None)
        components = out / "components.json"
        components.write_text(json.dumps(config | workload.config) + "\n", encoding="utf-8")
    path = out / "corpus.jsonl"
    corpus.save_synthetic_corpus(path, conversations, records)
    return {"corpus": str(path), "corpus_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "turns": sum(len(c.turns) for c in conversations), "audio_s": audio_s,
            "components": None if components is None else str(components),
            "generate_s": generate_s}


def inputs_main(name: str, seed: int, out: Path, repeats: int) -> dict:
    """Set up `repeats` times from scratch and time each set-up."""
    workload = WORKLOADS[name]
    setup_times, runs = [], []
    for _ in range(repeats):
        for p in out.glob("*"):
            p.unlink()
        t0 = time.perf_counter()
        runs.append(build_inputs(workload, seed, out))
        setup_times.append(time.perf_counter() - t0)
    generate_times = [r.pop("generate_s") for r in runs]
    return runs[-1] | {
        "setup_times_s": setup_times, "generate_times_s": generate_times,
        "deterministic": len({r["corpus_sha256"] for r in runs}) == 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "styledialog": styledialog.__version__, "styledialog_path": styledialog.__file__}


def probe_main(corpus_path: Path, seed: int, n_crops: int, seconds: float) -> dict:
    """Time the layers no CLI command of these workloads reaches (prompt
    building) or reaches only inside another call (pitch tracking), on the
    crops `run --crops n_crops --seed seed` makes from the corpus."""
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    head = corpus_path.with_name("probe.jsonl")
    # run's crops come from the first n_crops conversations
    head.write_text("\n".join(lines[:n_crops]) + "\n", encoding="utf-8")
    conversations, index, _ = corpus.load_corpus_with_index(head)
    eligible = [c for c in conversations if len(c.turns) >= 2]
    crops = [make_crop(eligible[i % len(eligible)],
                       sample_crop_index(eligible[i % len(eligible)], seed + i))
             for i in range(n_crops)]
    cases = []
    for crop in crops:
        refs = index.reference_styles(crop.conversation_id)
        context = context_from_turns(crop.context_turns[:-1], refs)
        path = f"{crop.conversation_id}_{len(crop.context_turns) - 1}.wav"
        full = prompts.build_prompt(crop, context, prompts.PromptVariant.FULL, path)
        bare = prompts.build_prompt(crop, ConversationContext(reference_styles=refs),
                                    prompts.PromptVariant.FULL, path)
        cases.append((crop, context, path, (full.token_count + bare.token_count) // 2))

    tracer = Tracer()
    install(tracer, PROBE_SPANS)
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for crop in crops:
                acoustics.pitch_track(crop.incoming_turn.audio)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for crop, context, path, _ in cases:
                for variant in prompts.PromptVariant:
                    prompts.build_prompt(crop, context, variant, path)
        for crop, context, path, budget in cases:
            prompts.truncate_to_budget(context, budget, crop=crop, audio_path=path)
    finally:
        tracer.restore()
    return probe_metrics(tracer.spans)


def main(argv) -> int:
    if argv[:1] == ["inputs"] and len(argv) == 5:
        result = inputs_main(argv[1], int(argv[2]), Path(argv[3]), int(argv[4]))
    elif argv[:1] == ["probe"] and len(argv) == 5:
        result = probe_main(Path(argv[1]), int(argv[2]), int(argv[3]), float(argv[4]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
