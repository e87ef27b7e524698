"""Single entry point tying every module into reproducible experiments.

Exit codes: 0 success, 1 check failure, 2 usage/config/path error.  Every
subcommand is deterministic given --seed; outputs are plain files written
atomically (write-then-rename); each run embeds its resolved configuration
for provenance.  NumPy's BLAS runs on one thread in a CLI process unless
OPENBLAS_NUM_THREADS is already set.
"""

from __future__ import annotations

import os

# Set before NumPy is first imported, in the CLI only, not on library import:
# importing NumPy with OpenBLAS's default pool of one thread per CPU cost
# about 75 ms of every command's start-up (Python 3.11, NumPy 2.4, 2 CPUs),
# and no command makes a BLAS call large enough to use a second thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import acoustics, audioio, objectives
from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .components import train_markov
from .dialog import (STYLE_DIM, DialogCrop, StyleVector, Turn, context_from_turns, make_crop,
                     sample_crop_index)
from .prompts import PromptVariant, build_prompt
from .scheduler import STAGES, LatencyModel, RunConfig, Topology, run_dialog, simulate_turn

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# keys a `run --components` / `simulate --config` file may hold
CONFIG_KEYS = frozenset({"_comment", "latency", "tokens_per_output_second",
                         "responder_mode", "style_mode", "target_wer"})
# keys every row of generated.jsonl after the `_config` header holds, an error row excepted
GENERATED_KEYS = ("crop", "conversation_id", "k", "speaker", "text", "audio")


class CliError(Exception):
    pass


def calibration_path() -> Path:
    return Path(resources.files("styledialog").joinpath("data/calibration.json"))


def bundled_corpus_path() -> Path:
    return Path(resources.files("styledialog").joinpath("data/corpus.jsonl"))


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")


def _check_keys(obj, accepted: frozenset, where: str) -> None:
    if not isinstance(obj, dict):
        raise CliError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - accepted)
    if unknown:
        raise CliError(f"{where} has unknown key(s) {', '.join(unknown)}; "
                       f"accepted: {', '.join(sorted(accepted))}")


def finite_positive(text: str) -> float:
    """argparse type of a duration flag: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def resolve_config(path, topology: Topology, seed: int = 0) -> tuple[dict, RunConfig]:
    """Read a config file (None: all defaults) into a RunConfig, which
    checks every setting the file gives.

    Returns the file's contents too, for provenance.  No `latency` key means
    zero cost for every stage; any fault is a CliError (exit 2).
    """
    config = _load_config(path) if path else {}
    _check_keys(config, CONFIG_KEYS, f"config {path}")
    latency = config.get("latency")
    if latency is not None and (not isinstance(latency, dict) or topology.value not in latency):
        raise CliError(f"config {path} has no latency section for topology {topology.value!r}")
    try:
        latencies = ({stage: LatencyModel() for stage in STAGES[topology]} if latency is None else
                     {stage: LatencyModel(**d)
                      for stage, d in latency[topology.value].items()})
        run_config = RunConfig(topology=topology, latencies=latencies, seed=seed,
                               **{k: v for k, v in config.items()
                                  if k not in ("_comment", "latency")})
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(f"config {path}: {exc}") from exc
    return config, run_config


def _load_corpus(path, audio_for=None):
    """`corpus.load_corpus_with_index` for a command: a corpus with nothing
    to load is a CliError, and each rejected record is a line on stderr."""
    try:
        conversations, index, rejects = corpus_mod.load_corpus_with_index(path, audio_for)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    for line_no, reason in rejects:
        print(f"{path}:{line_no}: rejected: {reason}", file=sys.stderr)
    return conversations, index, rejects


# --- subcommands ------------------------------------------------------------

def cmd_ingest(args) -> int:
    conversations, _, rejects = _load_corpus(args.corpus)
    kept = []
    discarded = 0
    stripped = 0
    for conv in conversations:
        turns = []
        for turn in conv.turns:
            if args.filter_diarization and not corpus_mod.filter_diarization(turn.text):
                discarded += 1
                continue
            text = turn.text
            if args.filter_diarization:
                text, did = corpus_mod.strip_leading_indicator(text)
                stripped += int(did)
            turns.append(replace(turn, text=metrics_mod.normalize(text)))
        if turns:
            kept.append(replace(conv, turns=tuple(turns)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(out / "corpus.jsonl", kept, write_audio=args.write_audio)
    summary = {
        "loaded": len(conversations),
        "rejected_records": rejects,
        "discarded_multi_speaker": discarded,
        "stripped_leading_indicators": stripped,
        "seed": args.seed,
    }
    corpus_mod.write_atomic(out / "ingest_report.json", json.dumps(summary, indent=2) + "\n")
    print(f"ingest: {len(conversations)} conversations, {len(rejects)} rejects, "
          f"{discarded} discarded segments, {stripped} stripped indicators")
    return EXIT_CHECK_FAILED if rejects else EXIT_OK


def _figure(value: float, decimals: int, width: int = 8) -> str:
    """`value` to `decimals` places, right-aligned in `width` columns, or to
    three significant digits when that would not fit."""
    text = f"{value:>{width}.{decimals}f}"
    return text if len(text) <= width else f"{value:>{width}.3g}"


def _check_out_file(out) -> None:
    """Refuse a file `--out` that is a directory before the work: the
    rename in `write_atomic` would fail only after it."""
    if out and Path(out).is_dir():
        raise CliError(f"--out {out} is a directory")


def cmd_simulate(args) -> int:
    _check_out_file(args.out)
    topology = args.topology
    config, run_config = resolve_config(args.config, topology)
    tokens_per_s = run_config.tokens_per_output_second
    out_tokens = tokens_per_s * args.output_dur
    if not math.isfinite(out_tokens):
        raise CliError(f"--output-dur {args.output_dur:g} at {tokens_per_s} tokens per "
                       f"second gives a token count that is not finite")
    out_tokens = int(round(out_tokens))
    try:
        report = simulate_turn(topology, args.input_dur, out_tokens, args.output_dur,
                               run_config.latencies)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    figures = {"RTF": report.rtf, "delay": report.delay_s, "carryover": report.carryover_s}
    if not all(math.isfinite(v) for v in figures.values()):
        raise CliError("the simulated report is not finite: " + ", ".join(
            f"{name} {value:g}" for name, value in figures.items()))
    print(f"{'Model':<14} {'RTF':>8} {'Delay':>9} {'Carryover':>10}")
    print(f"{topology.value:<14} {_figure(report.rtf, 4)} {_figure(report.delay_s, 2)} s "
          f"{_figure(report.carryover_s, 2)} s")
    payload = {"topology": topology.value, "input_dur": args.input_dur,
               "output_dur": args.output_dur, "rtf": report.rtf,
               "delay_s": report.delay_s, "carryover_s": report.carryover_s,
               "timeline": [vars(e) for e in report.timeline],
               "config": config}
    if args.out:
        corpus_mod.write_atomic(Path(args.out), json.dumps(payload, default=str, indent=2) + "\n")
    return EXIT_OK


def pick_crops(conversations, n_crops: int, seed: int) -> list[DialogCrop]:
    """The `run` crops: crop i cuts the (i mod n)-th of the n conversations
    with two or more turns at a point drawn from seed + i."""
    eligible = [c for c in conversations if len(c.turns) >= 2]
    if not eligible:
        raise CliError("corpus has no conversation with two or more turns")
    crops = []
    for i in range(n_crops):
        conv = eligible[i % len(eligible)]
        crops.append(make_crop(conv, sample_crop_index(conv, seed + i)))
    return crops


def cmd_run(args) -> int:
    if args.crops < 1:
        raise CliError("--crops must be >= 1")
    _, run_config = resolve_config(args.components, args.topology, args.seed)

    def incoming_turns(conversations):
        return [(crop.conversation_id, len(crop.context_turns) - 1)
                for crop in pick_crops(conversations, args.crops, args.seed)]
    conversations, index, _ = _load_corpus(args.corpus, incoming_turns)
    crops = pick_crops(conversations, args.crops, args.seed)
    out = Path(args.out)
    (out / "audio").mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the work
    markov = train_markov(conversations) if run_config.responder_mode == "markov" else None
    results = run_dialog(run_config, crops, index.reference_styles, markov)
    lines = []
    for i, (crop, result) in enumerate(zip(crops, results)):
        row = {"crop": i, "conversation_id": crop.conversation_id, "k": len(crop.context_turns)}
        if isinstance(result, str):  # a failed crop: an error row and one line on stderr
            print(f"error: turn {i} (conversation {crop.conversation_id!r}) failed: {result}",
                  file=sys.stderr)
            lines.append(json.dumps(row | {"error": result}))
            continue
        wav_rel = f"audio/gen_{i:04d}.wav"
        audioio.write_wav(out / wav_rel, result.generated.audio)
        lines.append(json.dumps(row | {
            "speaker": result.generated.speaker,
            "text": result.generated.text,
            "style": list(result.generated.prosodic_style.values),
            "audio": wav_rel,
            "recognized_incoming": result.recognized_text,
            "rtf": result.report.rtf,
            "delay_s": result.report.delay_s,
            "carryover_s": result.report.carryover_s,
        }))
    header = json.dumps({"_config": {"responder_mode": run_config.responder_mode,
                                     "style_mode": run_config.style_mode,
                                     "target_wer": run_config.target_wer,
                                     "seed": run_config.seed,
                                     "topology": run_config.topology.value}})
    corpus_mod.write_atomic(out / "generated.jsonl", header + "\n" + "\n".join(lines) + "\n")
    print(f"run: {len(results)} turns -> {out / 'generated.jsonl'}")
    return EXIT_CHECK_FAILED if any(isinstance(r, str) for r in results) else EXIT_OK


def _load_generated(path: Path):
    """(where, row) for each row of generated.jsonl after the `_config`
    header but its error rows, which are counted on stderr; a malformed row
    is a CliError naming its line."""
    rows = []
    skipped = 0
    with open(path / "generated.jsonl", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            where = f"generated.jsonl:{line_no}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CliError(f"{where}: {exc}") from exc
            if not isinstance(rec, dict):
                raise CliError(f"{where}: a row must be a JSON object")
            if "_config" in rec:
                continue
            if isinstance(rec.get("error"), str):
                skipped += 1
                continue
            missing = [key for key in GENERATED_KEYS if key not in rec]
            if missing:
                raise CliError(f"{where}: row lacks {', '.join(missing)}")
            not_str = [key for key in ("conversation_id", "speaker", "text")
                       if not isinstance(rec[key], str)]
            if not_str:
                raise CliError(f"{where}: {', '.join(not_str)} must be a string")
            k = rec["k"]
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise CliError(f"{where}: k must be an integer >= 0, got {k!r}")
            if not (isinstance(rec["audio"], str) and (path / rec["audio"]).is_file()):
                raise CliError(f"{where}: audio {rec['audio']!r} is not a file in {path}")
            rows.append((where, rec))
    if skipped:
        print(f"evaluate: skipped {skipped} error rows", file=sys.stderr)
    if not rows:
        raise CliError(f"{path / 'generated.jsonl'} holds no rows to score")
    return rows


def cmd_evaluate(args) -> int:
    _check_out_file(args.out)
    gen_dir = Path(args.generated)
    try:
        rows = _load_generated(gen_dir)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    references = {(row["conversation_id"], row["k"]) for _, row in rows}
    _, index, _ = _load_corpus(args.reference, lambda _: references)
    generated, reference = [], []
    for where, row in rows:
        conv = index.conversations.get(row["conversation_id"])
        if conv is None or row["k"] >= len(conv.turns):
            raise CliError(f"{where}: crop {row['crop']} references unknown "
                           f"conversation/turn {row['conversation_id']}:{row['k']}")
        target = conv.turns[row["k"]]
        try:
            clip = audioio.read_wav(gen_dir / row["audio"])
        except (OSError, ValueError) as exc:
            raise CliError(f"{where}: cannot read {row['audio']}: {exc}") from exc
        generated.append(Turn(speaker=row["speaker"], text=row["text"], audio=clip))
        reference.append(target)
    report = metrics_mod.assemble_report(generated, reference)
    print(f"{'metric':<12} {'value':>8}")
    for name, value in report.semantic.items():
        print(f"{name:<12} {value:>8.2f}")
    for name, value in report.acoustic.items():
        cell = "undef" if value is None else f"{value:.4f}"
        print(f"r[{name}]".ljust(16) + f" {cell:>8}")
    sim = report.speaker_similarity
    print(f"{'speaker_sim':<12} {'undef' if sim is None else f'{sim:.4f}':>8}")
    if args.out:
        payload = {"semantic": report.semantic, "acoustic": report.acoustic,
                   "speaker_similarity": report.speaker_similarity}
        corpus_mod.write_atomic(Path(args.out), json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _central_diff(f, x: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of f() in x, perturbing x in place."""
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + eps
        hi = f()
        x[i] = orig - eps
        lo = f()
        x[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def _max_rel_err(analytic, numeric, floor: float, rows=...) -> float:
    """Max of |analytic - numeric| / max(|numeric|, floor) over `rows`; 0 if none."""
    err = np.abs(analytic - numeric)[rows] / np.maximum(np.abs(numeric[rows]), floor)
    return float(err.max()) if err.size else 0.0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    max_style_err = max_text_err = 0.0
    H = 6
    for _ in range(args.trials):
        w = rng.normal(size=(STYLE_DIM, H))
        b = rng.normal(size=STYLE_DIM)
        h = rng.normal(size=H)
        target = StyleVector(values=tuple(rng.normal(size=STYLE_DIM)), kind="prosodic")
        # proj holds w and b themselves, so style_loss() sees each in-place perturbation
        proj = objectives.ProjectionOut(weights=w, bias=b)
        pred = objectives.project_out(h, proj)
        gw, gb = objectives.grad_style_loss(target, h, proj)

        def style_loss():
            return objectives.style_loss(objectives.project_out(h, proj), target)

        # the L1 loss has a kink where an output meets its target: skip those rows
        smooth = np.abs(pred.as_array() - target.as_array()) > 1e-6
        max_style_err = max(max_style_err,
                            _max_rel_err(gw, _central_diff(style_loss, w, 1e-5), 1e-8, smooth),
                            _max_rel_err(gb, _central_diff(style_loss, b, 1e-5), 1e-8, smooth))

        T, V = 5, 7
        logits = rng.normal(size=(T, V))
        targets = rng.integers(1, V + 1, size=T)
        num = _central_diff(lambda: objectives.text_loss(logits, targets), logits, 1e-6)
        max_text_err = max(max_text_err,
                           _max_rel_err(objectives.grad_text_loss(logits, targets), num, 1e-6))

    print(f"{'loss':<8} {'max rel err':>12} {'threshold':>10}")
    print(f"{'style':<8} {max_style_err:>12.3e} {1e-4:>10.0e}")
    print(f"{'text':<8} {max_text_err:>12.3e} {1e-6:>10.0e}")
    ok = max_style_err < 1e-4 and max_text_err < 1e-6
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_extract_styles(args) -> int:
    _check_out_file(args.out)
    conversations, _, _ = _load_corpus(args.corpus)
    lines = []
    for conv in conversations:
        for turn in conv.turns:
            if turn.audio is None:
                continue
            lines.append(json.dumps({"source_id": turn.audio.source_id,
                                     "style": list(acoustics.encode_style(turn.audio).values),
                                     "summary": asdict(acoustics.summarize(turn.audio))}))
    if not lines:
        raise CliError("no audio to extract styles from")
    text = "\n".join(lines) + "\n"
    if args.out:
        corpus_mod.write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    print(f"extract-styles: {len(lines)} utterances", file=sys.stderr)
    return EXIT_OK


def cmd_build_prompt(args) -> int:
    # a prompt holds text and styles, never audio
    _, index, _ = _load_corpus(args.corpus, lambda _: ())
    try:
        variant = PromptVariant.parse(args.variant)
        conv_id, _, k_str = args.crop_id.partition(":")
        if not (k_str.isascii() and k_str.isdigit()):
            raise CliError(f"--crop-id must be <conversation>:<turn index>, "
                           f"got {args.crop_id!r}")
        if conv_id not in index.conversations:
            raise CliError(f"unknown conversation {conv_id!r}")
        conv = index.conversations[conv_id]
        crop = make_crop(conv, int(k_str))
        context = context_from_turns(crop.context_turns[:-1],
                                     index.reference_styles(crop.conversation_id))
        audio_path = f"{crop.conversation_id}_{len(crop.context_turns) - 1}.wav"
        built = build_prompt(crop, context, variant, audio_path)
    except KeyError as exc:  # str() of a KeyError would quote its message
        raise CliError(exc.args[0]) from exc
    except (ValueError, IndexError) as exc:
        raise CliError(str(exc)) from exc
    sys.stdout.write(built.text)
    sys.stdout.write("\n---\n")
    print(f"{'offset':>7}  slot")
    for slot in built.input_style_slots:
        print(f"{slot.offset:>7}  input  {slot.ref_kind}:{slot.ref_id}")
    print(f"{built.output_style_slot:>7}  output")
    print(f"tokens: {built.token_count}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="styledialog")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate, filter, and normalize a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--filter-diarization", action="store_true")
    p.add_argument("--write-audio", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("simulate", help="latency report for one topology")
    p.add_argument("--topology", required=True, type=Topology.parse)
    p.add_argument("--config", default=str(calibration_path()))
    p.add_argument("--input-dur", type=finite_positive, default=10.0)
    p.add_argument("--output-dur", type=finite_positive, default=10.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="run the pipeline over sampled crops")
    p.add_argument("--corpus", required=True)
    p.add_argument("--topology", default="style-talker", type=Topology.parse)
    p.add_argument("--components", help="component/latency config file")
    p.add_argument("--crops", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score generated turns against ground truth")
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("extract-styles", help="encode per-utterance styles and summaries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract_styles)

    p = sub.add_parser("build-prompt", help="print a prompt and its slot table")
    p.add_argument("--corpus", default=str(bundled_corpus_path()))
    p.add_argument("--crop-id", required=True, help="conversation:crop-index")
    p.add_argument("--variant", default="full")
    p.set_defaults(func=cmd_build_prompt)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, OSError) as exc:  # a path a command cannot use is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
