"""Which program functions get a span, and the per-layer metrics derived
from those spans.

Layers are the styledialog modules.  Each function is wrapped where its
callers look it up: cli imported run_dialog and train_markov by name, so
those are patched on cli; everything else is looked up as a module or class
attribute at call time and is patched there.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

from tracer import self_times, top_level_time


def _turns(args, result):
    conversations, _ = result
    return sum(len(c.turns) for c in conversations)


def _samples_out(args, result):
    return result.samples.size


def _wav_bytes_read(args, result):
    return 2 * result.samples.size


def _wav_bytes_written(args, result):
    return 2 * args[1].samples.size


def _clip_seconds(args, result):
    return args[0].duration_seconds


def _frames(args, result):
    return len(result[0])


TEXT_METRICS = ("bleu", "rouge_l_f1", "greedy_embed_score", "word_edit_distance")

# (module, owner within the module or None, attribute, span name, measure)
OP_SPANS = (
    ("corpus", None, "load_corpus", "corpus.load_corpus", _turns),
    ("corpus", None, "load_corpus_with_index", "corpus.load_corpus_with_index", None),
    ("corpus", None, "save_corpus", "corpus.save_corpus", None),
    ("components", "ToySynthesizer", "synthesize", "components.synthesize", _samples_out),
    ("components", "ToyRecognizer", "recognize", "components.recognize", None),
    ("components", "ToyResponder", "respond", "components.respond", None),
    ("cli", None, "train_markov", "components.train_markov", None),
    ("audioio", None, "read_wav", "audioio.read_wav", _wav_bytes_read),
    ("audioio", None, "write_wav", "audioio.write_wav", _wav_bytes_written),
    ("acoustics", None, "encode_style", "acoustics.encode_style", _clip_seconds),
    ("acoustics", None, "summarize", "acoustics.summarize", _clip_seconds),
    ("acoustics", None, "hnr", "acoustics.hnr", None),
    ("acoustics", None, "acoustic_embedding", "acoustics.acoustic_embedding", _clip_seconds),
    ("scheduler", None, "simulate_turn", "scheduler.simulate_turn", None),
    ("cli", None, "run_dialog", "scheduler.run_dialog", None),
    ("metrics", None, "meteor_exact", "metrics.meteor_exact", None),
    ("metrics", None, "assemble_report", "metrics.assemble_report", None),
) + tuple(("metrics", None, fn, f"metrics.text.{fn}", None) for fn in TEXT_METRICS)

PROBE_SPANS = (
    ("acoustics", None, "pitch_track", "acoustics.pitch_track", _frames),
    ("prompts", None, "build_prompt", "prompts.build_prompt", None),
    ("prompts", None, "truncate_to_budget", "prompts.truncate_to_budget", None),
)


def install(tracer, table) -> None:
    for module, owner, attr, name, measure in table:
        target = importlib.import_module(f"styledialog.{module}")
        if owner is not None:
            target = getattr(target, owner)
        tracer.patch(target, attr, name, measure)


class SpanStats:
    """Totals per span name over a list of traced ops.

    An op is a dict with "spans" (every span of its commands), "wall_s" and
    "check" (the OpCheck of its outputs, None when the op failed).  Ratios
    to what an op used come from ops whose outputs passed their checks.
    """

    def __init__(self, ops):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.amount = defaultdict(float)
        self.max_s = defaultdict(float)
        self.per_op_self = defaultdict(list)
        self.per_op_total = defaultdict(list)
        self.per_op_calls = defaultdict(list)
        self.rendered_by_load = self.clips_used = 0
        self.hnr_calls = self.clips_analysed = 0
        for op in ops:
            check = op.get("check")
            spans = op["spans"]
            by_id = {s.id: s for s in spans}
            selfs = self_times(spans)
            op_self, op_total, op_calls = defaultdict(float), defaultdict(float), defaultdict(int)
            for s in spans:
                self.calls[s.name] += 1
                self.total_s[s.name] += s.duration
                self.amount[s.name] += s.amount or 0.0
                self.max_s[s.name] = max(self.max_s[s.name], s.duration)
                op_self[s.name] += selfs[s.id]
                op_total[s.name] += s.duration
                op_calls[s.name] += 1
                if check is None:
                    continue
                if (s.name == "components.synthesize" and s.parent is not None
                        and by_id[s.parent].name == "corpus.load_corpus"):
                    self.rendered_by_load += 1
                self.hnr_calls += s.name == "acoustics.hnr"
            if check is not None:
                self.clips_used += check.clips_used
                self.clips_analysed += check.clips_analysed
            for name in op_calls:
                self.per_op_self[name].append(op_self[name])
                self.per_op_total[name].append(op_total[name])
                self.per_op_calls[name].append(op_calls[name])

    def rate(self, name, scale=1.0):
        if not self.calls[name] or self.total_s[name] <= 0:
            return None
        return self.amount[name] * scale / self.total_s[name]

    def calls_per_s(self, name):
        return self.calls[name] / self.total_s[name] if self.calls[name] else None

    def median_self(self, name):
        vals = self.per_op_self.get(name)
        return statistics.median(vals) if vals else None

    def median_total(self, name):
        vals = self.per_op_total.get(name)
        return statistics.median(vals) if vals else None


def op_metrics(traced_ops) -> dict:
    """Per-layer metrics from the spans of traced ops; a metric whose layer
    was never called is left out.  Values are (value, unit)."""
    st = SpanStats(traced_ops)
    text_calls = st.calls["metrics.text.rouge_l_f1"]
    text_s = sum(st.total_s[f"metrics.text.{fn}"] for fn in TEXT_METRICS)
    cli_self = [op["wall_s"] - top_level_time(op["spans"]) for op in traced_ops]
    out = {
        "cli.self_s": (statistics.median(cli_self) if cli_self else None, "s"),
        "corpus.load_corpus.self_s": (st.median_self("corpus.load_corpus"), "s"),
        "corpus.load_corpus_with_index.self_s":
            (st.median_self("corpus.load_corpus_with_index"), "s"),
        "corpus.turns_per_s": (st.rate("corpus.load_corpus"), "turns/s"),
        "corpus.render_useful_frac":
            (st.clips_used / st.rendered_by_load if st.rendered_by_load else None, "fraction"),
        "corpus.save_corpus.s": (st.median_total("corpus.save_corpus"), "s"),
        "components.synthesize.calls":
            (statistics.median(st.per_op_calls["components.synthesize"])
             if st.calls["components.synthesize"] else None, "count"),
        "components.synthesize.samples_per_s":
            (st.rate("components.synthesize"), "samples/s"),
        "components.respond.calls_per_s": (st.calls_per_s("components.respond"), "calls/s"),
        "components.train_markov.s": (st.median_total("components.train_markov"), "s"),
        "audioio.read_wav.mb_per_s": (st.rate("audioio.read_wav", 1e-6), "MB/s"),
        "audioio.write_wav.mb_per_s": (st.rate("audioio.write_wav", 1e-6), "MB/s"),
        "acoustics.encode_style.audio_s_per_s":
            (st.rate("acoustics.encode_style"), "audio-s/s"),
        "acoustics.summarize.audio_s_per_s": (st.rate("acoustics.summarize"), "audio-s/s"),
        "acoustics.hnr.calls_per_clip":
            (st.hnr_calls / st.clips_analysed if st.hnr_calls else None, "count"),
        "acoustics.acoustic_embedding.audio_s_per_s":
            (st.rate("acoustics.acoustic_embedding"), "audio-s/s"),
        "scheduler.simulate_turn.sims_per_s":
            (st.calls_per_s("scheduler.simulate_turn"), "sims/s"),
        "scheduler.run_dialog.self_s": (st.median_self("scheduler.run_dialog"), "s"),
        "metrics.meteor_exact.pairs_per_s": (st.calls_per_s("metrics.meteor_exact"), "pairs/s"),
        "metrics.meteor_exact.max_s":
            (st.max_s["metrics.meteor_exact"] if st.calls["metrics.meteor_exact"] else None, "s"),
        "metrics.text.pairs_per_s": (text_calls / text_s if text_calls else None, "pairs/s"),
        "metrics.assemble_report.self_s": (st.median_self("metrics.assemble_report"), "s"),
    }
    return {k: v for k, v in out.items() if v[0] is not None}


def probe_metrics(spans) -> dict:
    """Metrics of the layers the benchmark calls directly (not via the CLI)."""
    st = SpanStats([{"spans": spans, "wall_s": 0.0}])
    builds = st.calls["prompts.build_prompt"]
    truncations = st.calls["prompts.truncate_to_budget"]
    # build_prompt calls made by truncate_to_budget are the ones with a parent
    nested = sum(1 for s in spans
                 if s.name == "prompts.build_prompt" and s.parent is not None)
    direct = builds - nested
    direct_s = sum(s.duration for s in spans
                   if s.name == "prompts.build_prompt" and s.parent is None)
    out = {
        "acoustics.pitch_track.frames_per_s": (st.rate("acoustics.pitch_track"), "frames/s"),
        "prompts.build_prompt.prompts_per_s": (direct / direct_s if direct else None, "prompts/s"),
        "prompts.truncate_to_budget.builds_per_call":
            (nested / truncations if truncations else None, "count"),
    }
    return {k: v for k, v in out.items() if v[0] is not None}
