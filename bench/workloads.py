"""The benchmark's workloads: the CLI commands of one op, and the checks on
each op's outputs.

Inputs are made from the seed by bench/inproc.py and written under input/;
the program sees only those files.  An op runs its commands in a fresh
directory op/ with the same argv every time, so ops of one run must produce
byte-identical outputs.  This module uses only the standard library: the
benchmark process never imports styledialog.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

CALIBRATION = Path("src/styledialog/data/calibration.json")
BUNDLED_CORPUS = Path("src/styledialog/data/corpus.jsonl")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_tree(root: Path) -> str:
    """One digest over every file under root: relative names and contents."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


@dataclass
class Inputs:
    corpus: Path
    corpus_sha256: str
    turns: int
    audio_s: float | None = None          # corpus audio, when set-up rendered it
    components: Path | None = None


@dataclass
class OpCheck:
    errors: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    rows: int = 0
    audio_s: float = 0.0                  # audio seconds the op analysed
    clips_used: int = 0                   # rendered clips the op consumed
    clips_analysed: int = 0               # clips passed to acoustic analysis


def _rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run_evaluate(op: Path, crops: int, oracle: bool) -> OpCheck:
    out = OpCheck()
    gen_dir = op / "gen"
    rows = [r for r in _rows(gen_dir / "generated.jsonl") if "_config" not in r]
    out.rows = len(rows)
    if len(rows) != crops:
        out.errors.append(f"generated.jsonl has {len(rows)} rows for {crops} crops")
    missing = [r["audio"] for r in rows if not (gen_dir / r["audio"]).is_file()]
    if missing:
        out.errors.append(f"{len(missing)} generated WAVs missing, e.g. {missing[0]}")
    report = json.loads((op / "eval.json").read_text(encoding="utf-8"))
    if oracle and (report["semantic"]["bleu"] != 100.0 or report["semantic"]["wer"] != 0.0):
        out.errors.append(f"oracle responder scored bleu {report['semantic']['bleu']} "
                          f"wer {report['semantic']['wer']}, expected 100 and 0")
    out.hashes = {"gen/generated.jsonl": sha256_file(gen_dir / "generated.jsonl"),
                  "gen/audio": sha256_tree(gen_dir / "audio"),
                  "eval.json": sha256_file(op / "eval.json")}
    out.clips_used = 2 * len(rows)        # run: incoming clip; evaluate: reference
    out.clips_analysed = 2 * len(rows)    # evaluate summarizes generated + reference
    return out


class CropsSynth200:
    name = "crops-synth200"
    why = ("200 synthetic conversations, 20 crops: corpus parse and render dominate "
           "run and evaluate, and only 20 of ~1200 rendered clips are used")
    n_conversations = 200
    crops = 20
    deadline_s = 40.0

    def commands(self, inputs: Inputs, seed: int):
        return [
            ("run", ["run", "--corpus", str(inputs.corpus), "--topology", "style-talker",
                     "--components", str(CALIBRATION.resolve()), "--crops", str(self.crops),
                     "--seed", str(seed), "--out", "op/gen"]),
            ("evaluate", ["evaluate", "--generated", "op/gen",
                          "--reference", str(inputs.corpus), "--out", "op/eval.json"]),
        ]

    def check(self, op: Path, inputs: Inputs) -> OpCheck:
        return check_run_evaluate(op, self.crops, oracle=True)


class IngestExtract:
    name = "ingest-extract"
    why = ("20 synthetic conversations ingested to WAVs, then every clip analysed: "
           "acoustics dominates and every rendered clip is used")
    n_conversations = 20
    deadline_s = 30.0

    def commands(self, inputs: Inputs, seed: int):
        return [
            ("ingest", ["ingest", "--corpus", str(inputs.corpus), "--out", "op/ingested",
                        "--write-audio", "--filter-diarization", "--seed", str(seed)]),
            ("extract-styles", ["extract-styles", "--corpus", "op/ingested/corpus.jsonl",
                                "--out", "op/styles.jsonl"]),
        ]

    def check(self, op: Path, inputs: Inputs) -> OpCheck:
        out = OpCheck()
        ingested = op / "ingested"
        clips = [t["audio"] for c in _rows(ingested / "corpus.jsonl")
                 for t in c["turns"] if t.get("audio")]
        if len(clips) != inputs.turns:
            out.errors.append(f"ingest wrote {len(clips)} clips for {inputs.turns} turns")
        missing = [p for p in clips if not (ingested / p).is_file()]
        if missing:
            out.errors.append(f"{len(missing)} ingested WAVs missing, e.g. {missing[0]}")
        rows = _rows(op / "styles.jsonl")
        out.rows = len(rows)
        if len(rows) != len(clips):
            out.errors.append(f"extract-styles wrote {len(rows)} rows for {len(clips)} clips")
        out.audio_s = sum(r["summary"]["duration_s"] for r in rows)
        out.hashes = {"ingested/corpus.jsonl": sha256_file(ingested / "corpus.jsonl"),
                      "ingested/ingest_report.json":
                          sha256_file(ingested / "ingest_report.json"),
                      "ingested/audio": sha256_tree(ingested / "audio"),
                      "styles.jsonl": sha256_file(op / "styles.jsonl")}
        out.clips_used = len(clips)
        out.clips_analysed = len(rows)
        return out


class VerbatimMarkov:
    name = "verbatim-markov"
    why = ("disfluent 20-50 word turns from a 30-word vocabulary, cascade + Markov "
           "responder: METEOR's exhaustive chunk search dominates evaluate")
    n_conversations = 20
    crops = 4
    deadline_s = 20.0
    # merged over the bundled calibration into input/components.json
    config = {"responder_mode": "markov", "style_mode": "context_average",
              "target_wer": 0.1}

    def commands(self, inputs: Inputs, seed: int):
        return [
            ("run", ["run", "--corpus", str(inputs.corpus), "--topology", "cascade",
                     "--components", str(inputs.components), "--crops", str(self.crops),
                     "--seed", str(seed), "--out", "op/gen"]),
            ("evaluate", ["evaluate", "--generated", "op/gen",
                          "--reference", str(inputs.corpus), "--out", "op/eval.json"]),
        ]

    def check(self, op: Path, inputs: Inputs) -> OpCheck:
        return check_run_evaluate(op, self.crops, oracle=False)

    def defect_repro(self, inputs: Inputs):
        """The known Markov empty-response crash, as first reproduced: the
        bundled corpus, 40 crops, seed 0."""
        return ["run", "--corpus", str(BUNDLED_CORPUS.resolve()), "--topology", "cascade",
                "--components", str(inputs.components), "--crops", "40", "--seed", "0",
                "--out", "op/defect"]


WORKLOADS = {w.name: w for w in (CropsSynth200(), IngestExtract(), VerbatimMarkov())}
