"""Smoke test of the benchmark against the package as it is now.

The benchmark under bench/ wraps package functions by name and runs the CLI
and its own in-process helpers in child processes.  A renamed function, a
changed result shape or a CLI change that breaks it should fail here, not
only when the benchmark is next run.  Nothing under bench/ is modified.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CHILD_TIMEOUT_S = 120
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# per-layer metrics bench/run.py measures itself, not from spans or the probe
RUN_PY_METRICS = {"cli.startup_s", "corpus.generate_synthetic_corpus.s", "trace.overhead_frac"}


def _bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def _run(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    assert res.returncode == 0, f"{args[:2]} exited {res.returncode}: {res.stderr[-2000:]}"
    return res.stdout


def test_every_traced_name_resolves(monkeypatch):
    layers = _bench_module(monkeypatch, "layers")
    for module, owner, attr, span, _ in layers.OP_SPANS + layers.PROBE_SPANS:
        target = importlib.import_module(f"styledialog.{module}")
        if owner is not None:
            target = getattr(target, owner)
            # a wrapped staticmethod would be called with the instance first
            assert inspect.isfunction(inspect.getattr_static(target, attr, None)), \
                f"{span}: {module}.{owner}.{attr} is not a plain function"
        assert callable(getattr(target, attr, None)), f"{span}: {module}.{owner}.{attr}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The 20-conversation corpus `bench/inproc.py inputs` builds for ingest-extract."""
    out = tmp_path_factory.mktemp("input")
    inputs = json.loads(_run(BENCH / "inproc.py", "inputs", "ingest-extract", 1, out, 1))
    assert inputs["deterministic"] and Path(inputs["corpus"]).is_file()
    return inputs


def test_ingest_extract_runs_traced(monkeypatch, tmp_path, inputs):
    """Both commands run traced, with spans at the layers the benchmark
    reports; `ingest` renders through the wrapped `synthesize`, so a change
    that moves the synthesizer's wrap point fails here."""
    layers = _bench_module(monkeypatch, "layers")
    tracer = _bench_module(monkeypatch, "tracer")
    corpus = Path(inputs["corpus"])

    op = tmp_path / "op"
    spans, ops = {}, {}
    for name, cli_args in (
            ("ingest", ["ingest", "--corpus", corpus, "--out", op / "ingested",
                        "--write-audio", "--filter-diarization", "--seed", 1]),
            ("extract-styles", ["extract-styles", "--corpus", op / "ingested" / "corpus.jsonl",
                                "--out", op / "styles.jsonl"])):
        spans_path = tmp_path / f"{name}.spans.json"
        t0 = time.perf_counter()
        _run(BENCH / "traced_cli.py", spans_path, "--", *cli_args)
        wall_s = time.perf_counter() - t0
        payload = json.loads(spans_path.read_text(encoding="utf-8"))
        assert payload["open_stack"] == []
        spans[name] = {row[2] for row in payload["spans"]}
        ops[name] = {"spans": tracer.spans_from_json(payload), "wall_s": wall_s, "check": None}
    assert {"corpus.load_corpus", "corpus.save_corpus", "audioio.write_wav",
            "components.synthesize"} <= spans["ingest"]
    synth = layers.op_metrics([ops["ingest"]])
    assert synth["components.synthesize.calls"][0] > 0
    assert synth["components.synthesize.samples_per_s"][0] > 0
    assert {"acoustics.encode_style", "acoustics.summarize", "acoustics.hnr",
            "audioio.read_wav"} <= spans["extract-styles"]
    rows = [json.loads(line) for line in (op / "styles.jsonl").read_text().splitlines()]
    assert len(rows) == inputs["turns"]

    probe = json.loads(_run(BENCH / "inproc.py", "probe", corpus, 1, 20, 0.05))
    assert probe["acoustics.pitch_track.frames_per_s"][0] > 0
    assert "prompts.truncate_to_budget.builds_per_call" in probe


@pytest.mark.parametrize("name", ["crops-synth200", "ingest-extract", "verbatim-markov"])
def test_workload_commands_parse(monkeypatch, name):
    workloads = _bench_module(monkeypatch, "workloads")
    from styledialog.cli import make_parser
    inputs = workloads.Inputs(corpus=Path("input/corpus.jsonl"), corpus_sha256="", turns=1,
                              components=Path("input/components.json"))
    for _, cli_args in workloads.WORKLOADS[name].commands(inputs, 1):
        make_parser().parse_args([str(a) for a in cli_args])


@pytest.mark.parametrize("name", ["crops-synth200", "verbatim-markov"])
def test_workload_configs_resolve(monkeypatch, tmp_path, name):
    """`run` accepts the config file each workload passes it: the bundled
    calibration, or the calibration without `_comment` merged with the
    workload's own keys, as bench/inproc.py writes it."""
    workloads = _bench_module(monkeypatch, "workloads")
    from styledialog.cli import make_parser, resolve_config
    monkeypatch.chdir(ROOT)
    config = json.loads(workloads.CALIBRATION.read_text(encoding="utf-8"))
    config.pop("_comment")
    components = tmp_path / "components.json"
    components.write_text(json.dumps(config | workloads.VerbatimMarkov.config), encoding="utf-8")
    inputs = workloads.Inputs(corpus=Path("input/corpus.jsonl"), corpus_sha256="", turns=1,
                              components=components)
    runs = [make_parser().parse_args([str(a) for a in cli_args])
            for _, cli_args in workloads.WORKLOADS[name].commands(inputs, 1)
            if cli_args[0] == "run"]
    assert runs
    for args in runs:
        resolve_config(args.components, args.topology, args.seed)


def test_run_reports_corpus_layers(monkeypatch, tmp_path, inputs):
    """A traced `run` reports the corpus layer metrics the benchmark gates
    on, so a change to `load_corpus`'s result or to where synth-backed audio
    is rendered fails here.  `run` renders only its crops' incoming turns and
    `evaluate` only their reference turns, so each, and the two as one op
    like the benchmark's crops op, use every clip `load_corpus` renders."""
    layers = _bench_module(monkeypatch, "layers")
    tracer = _bench_module(monkeypatch, "tracer")
    workloads = _bench_module(monkeypatch, "workloads")
    crops = 2
    payloads, wall_s = [], 0.0
    for name, cli_args in (
            ("run", ["run", "--corpus", inputs["corpus"], "--topology", "style-talker",
                     "--components", ROOT / workloads.CALIBRATION, "--crops", crops,
                     "--seed", 1, "--out", tmp_path / "gen"]),
            ("evaluate", ["evaluate", "--generated", tmp_path / "gen",
                          "--reference", inputs["corpus"]])):
        spans_path = tmp_path / f"{name}.spans.json"
        t0 = time.perf_counter()
        _run(BENCH / "traced_cli.py", spans_path, "--", *cli_args)
        wall_s += time.perf_counter() - t0
        payloads.append(json.loads(spans_path.read_text(encoding="utf-8")))
    run_spans = tracer.spans_from_json(payloads[0])
    evaluate_spans = tracer.spans_from_json(payloads[1], id_offset=len(run_spans))
    run_op = {"spans": run_spans, "wall_s": wall_s,
              "check": workloads.OpCheck(clips_used=crops)}
    metrics = layers.op_metrics([run_op])
    for name in ("corpus.load_corpus.self_s", "corpus.turns_per_s",
                 "corpus.render_useful_frac"):
        assert metrics[name][0] > 0, name
    assert metrics["corpus.render_useful_frac"][0] == 1.0
    crops_op = {"spans": run_spans + evaluate_spans, "wall_s": wall_s,
                "check": workloads.OpCheck(clips_used=2 * crops, clips_analysed=2 * crops)}
    assert layers.op_metrics([crops_op])["corpus.render_useful_frac"][0] == 1.0


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_op_reports_every_per_layer_name(monkeypatch, tmp_path, name):
    """One traced op of each workload BENCHMARK.json lists, run from a fresh
    directory as bench/run.py runs it, passes the workload's check and gives
    every `per_layer` name BENCHMARK.json lists.  `op_metrics` leaves out a
    metric whose layer saw nothing (`corpus.render_useful_frac` when nothing
    renders inside `load_corpus`), and bench/run.py prints only the metrics
    present, so a missing name would otherwise show only as a malformed
    benchmark result."""
    layers = _bench_module(monkeypatch, "layers")
    tracer = _bench_module(monkeypatch, "tracer")
    workloads = _bench_module(monkeypatch, "workloads")
    workload = workloads.WORKLOADS[name]
    (tmp_path / "input").mkdir()
    info = json.loads(_run(BENCH / "inproc.py", "inputs", name, 1, tmp_path / "input", 1))
    inputs = workloads.Inputs(corpus=Path(info["corpus"]), corpus_sha256=info["corpus_sha256"],
                              turns=info["turns"], audio_s=info["audio_s"])
    monkeypatch.chdir(ROOT)  # commands() resolves the calibration path from here
    spans, wall_s = [], 0.0
    for command, cli_args in workload.commands(inputs, 1):
        spans_path = tmp_path / f"{command}.spans.json"
        t0 = time.perf_counter()
        _run(BENCH / "traced_cli.py", spans_path, "--", *cli_args, cwd=tmp_path)
        wall_s += time.perf_counter() - t0
        payload = json.loads(spans_path.read_text(encoding="utf-8"))
        spans += tracer.spans_from_json(payload, id_offset=len(spans))
    check = workload.check(tmp_path / "op", inputs)
    assert check.errors == []
    probe = json.loads(_run(BENCH / "inproc.py", "probe", inputs.corpus, 1, 20, 0.05))
    reported = set(layers.op_metrics([{"spans": spans, "wall_s": wall_s, "check": check}]))
    reported |= set(probe) | RUN_PY_METRICS
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in reported] == []
