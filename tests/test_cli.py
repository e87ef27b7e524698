import json
from pathlib import Path

import pytest

from styledialog.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE,
                             bundled_corpus_path, calibration_path, main)

GOLDEN = Path(__file__).parent / "golden"
CORPUS = str(bundled_corpus_path())


class TestArgHandling:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["run", "--out", "/tmp/x"]) == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK


class TestSimulate:
    def test_calibrated_output(self, capsys):
        assert main(["simulate", "--topology", "style-talker"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "style_talker" in out
        rtf = float(out.split()[-3])
        assert rtf == pytest.approx(0.3873, rel=0.1)

    def test_zero_latency_config(self, tmp_path, capsys):
        cfg = {"latency": {"cascade": {s: {} for s in ("asr", "llm", "tts")}}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out_file = tmp_path / "report.json"
        assert main(["simulate", "--topology", "cascade", "--config", str(p),
                     "--out", str(out_file)]) == EXIT_OK
        payload = json.loads(out_file.read_text())
        assert payload["rtf"] == 0.0 and payload["delay_s"] == 0.0

    def test_no_latency_key_costs_nothing(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"tokens_per_output_second": 3}))
        out_file = tmp_path / "report.json"
        assert main(["simulate", "--topology", "e2e", "--config", str(p),
                     "--out", str(out_file)]) == EXIT_OK
        payload = json.loads(out_file.read_text())
        assert payload["rtf"] == 0.0 and payload["delay_s"] == 0.0

    def test_missing_stage(self, tmp_path, capsys):
        cfg = {"latency": {"cascade": {"asr": {}}}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--topology", "cascade", "--config", str(p)]) \
            == EXIT_USAGE

    def test_missing_topology_section(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"latency": {}}))
        assert main(["simulate", "--topology", "cascade", "--config", str(p)]) \
            == EXIT_USAGE

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["simulate", "--topology", "cascade",
                     "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_unknown_topology(self, capsys):
        assert main(["simulate", "--topology", "bogus"]) == EXIT_USAGE
        assert "--topology" in capsys.readouterr().err


class TestIngest:
    def test_diarization_filtering(self, tmp_path, capsys):
        corpus = tmp_path / "raw.jsonl"
        corpus.write_text(json.dumps({"id": "c", "turns": [
            {"speaker": "a", "text": "[S1] Hello there!", "audio": None},
            {"speaker": "b", "text": "[S1] mixed [S2] segment", "audio": None},
            {"speaker": "a", "text": "Um, fine thanks.", "audio": None},
        ]}) + "\n")
        out = tmp_path / "clean"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(out),
                     "--filter-diarization"]) == EXIT_OK
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["discarded_multi_speaker"] == 1
        assert report["stripped_leading_indicators"] == 1
        kept = [json.loads(l) for l in (out / "corpus.jsonl").read_text().splitlines()]
        texts = [t["text"] for t in kept[0]["turns"]]
        assert texts == ["hello there", "fine thanks"]

    def test_missing_corpus(self, tmp_path, capsys):
        assert main(["ingest", "--corpus", str(tmp_path / "x.jsonl"),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_rejected_record_is_a_check_failure(self, tmp_path, capsys):
        corpus = tmp_path / "raw.jsonl"
        good = {"id": "good", "turns": [{"speaker": "a", "text": "Hello there!"}]}
        bad = {"id": "bad", "turns": [{"text": "no speaker"}]}
        corpus.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "clean"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(out)]) \
            == EXIT_CHECK_FAILED
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["loaded"] == 1
        assert [line for line, _ in report["rejected_records"]] == [2]
        kept = [json.loads(l) for l in (out / "corpus.jsonl").read_text().splitlines()]
        assert [c["id"] for c in kept] == ["good"]


class TestRunAndEvaluate:
    def _run(self, out_dir, seed=0):
        return main(["run", "--corpus", CORPUS, "--topology", "style-talker",
                     "--crops", "5", "--seed", str(seed), "--out", str(out_dir)])

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(a) == EXIT_OK
        assert self._run(b) == EXIT_OK
        assert (a / "generated.jsonl").read_bytes() == (b / "generated.jsonl").read_bytes()
        assert (a / "audio/gen_0000.wav").read_bytes() == \
               (b / "audio/gen_0000.wav").read_bytes()

    def test_evaluate_matches_golden_report(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._run(run_dir) == EXIT_OK
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--generated", str(run_dir),
                     "--reference", CORPUS, "--out", str(report_path)]) == EXIT_OK
        assert report_path.read_bytes() == (GOLDEN / "eval_report.json").read_bytes()

    def test_evaluate_unknown_conversation(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._run(run_dir) == EXIT_OK
        gen = run_dir / "generated.jsonl"
        lines = gen.read_text().splitlines()
        row = json.loads(lines[1])
        row["conversation_id"] = "ghost"
        lines[1] = json.dumps(row)
        gen.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--generated", str(run_dir),
                     "--reference", CORPUS]) == EXIT_USAGE

    def test_evaluate_missing_generated(self, tmp_path, capsys):
        assert main(["evaluate", "--generated", str(tmp_path),
                     "--reference", CORPUS]) == EXIT_USAGE


ST_ZERO = {s: {} for s in ("audio_llm", "tts", "asr", "style_enc")}

# config faults of `run`; each is a usage error caught before anything is written
RUN_FAULTS = {
    "latency section without the topology":
        ({"latency": {"cascade": {s: {} for s in ("asr", "llm", "tts")}}}, []),
    "empty latency": ({"latency": {}}, []),
    "missing stage": ({"latency": {"style_talker": {"audio_llm": {}, "tts": {}, "asr": {}}}}, []),
    "unknown key": ({"responder_mod": "markov"}, []),
    "unknown latency field": ({"latency": {"style_talker": ST_ZERO | {"tts": {"fixed": 0.2}}}}, []),
    "negative cost": ({"latency": {"style_talker": ST_ZERO | {"asr": {"fixed_s": -1}}}}, []),
    "unknown style_mode": ({"style_mode": "loud"}, []),
    "target_wer out of range": ({"target_wer": 2}, []),
    "top-level list": ([{"responder_mode": "markov"}], []),
    "unknown topology": (None, ["--topology", "bogus"]),
    "no crops": (None, ["--crops", "0"]),
}


class TestRunConfig:
    @pytest.mark.parametrize("cfg, extra", RUN_FAULTS.values(), ids=RUN_FAULTS.keys())
    def test_fault_is_a_usage_error(self, tmp_path, capsys, cfg, extra):
        out = tmp_path / "out"
        argv = ["run", "--corpus", CORPUS, "--crops", "2", "--out", str(out)]
        if cfg is not None:
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(cfg))
            argv += ["--components", str(p)]
        assert main(argv + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert not (out / "generated.jsonl").exists()

    def test_applied_config_is_recorded(self, tmp_path, capsys):
        cfg = json.loads(calibration_path().read_text()) | {
            "responder_mode": "markov", "style_mode": "context_average", "target_wer": 0.1}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--corpus", CORPUS, "--topology", "cascade", "--components", str(p),
                     "--crops", "1", "--seed", "3", "--out", str(out)]) == EXIT_OK
        header = (out / "generated.jsonl").read_text().splitlines()[0]
        assert header == ('{"_config": {"responder_mode": "markov", "style_mode": '
                          '"context_average", "target_wer": 0.1, "seed": 3, '
                          '"topology": "cascade"}}')


class TestOneAnalysisPerClip:
    """The NCCF core runs once per analysed clip, though encode_style,
    summarize and hnr each ask for the clip's pitch track."""

    @pytest.fixture
    def nccf_calls(self, monkeypatch):
        from styledialog import acoustics
        calls = []
        core = acoustics._nccf_peaks
        monkeypatch.setattr(acoustics, "_nccf_peaks",
                            lambda *args: calls.append(1) or core(*args))
        return calls

    def test_extract_styles(self, tmp_path, capsys, nccf_calls):
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", CORPUS, "--out", str(out)]) == EXIT_OK
        assert len(nccf_calls) == len(out.read_text().splitlines()) == 124

    def test_evaluate(self, tmp_path, capsys, nccf_calls):
        run_dir = tmp_path / "run"
        assert main(["run", "--corpus", CORPUS, "--crops", "5", "--out", str(run_dir)]) \
            == EXIT_OK
        nccf_calls.clear()
        assert main(["evaluate", "--generated", str(run_dir), "--reference", CORPUS]) \
            == EXIT_OK
        assert len(nccf_calls) == 2 * 5  # each crop's generated and reference clip


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--trials", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "style" in out and "text" in out

    def test_inject_error_fails(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--inject-error"]) \
            == EXIT_CHECK_FAILED

    def test_zero_trials(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == EXIT_USAGE


class TestExtractStyles:
    def test_bundled_corpus(self, tmp_path, capsys):
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", CORPUS,
                     "--out", str(out)]) == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 124
        for row in rows[:3]:
            assert len(row["style"]) == 8
            assert "pitch_mean" in row["summary"]

    def test_no_audio(self, tmp_path, capsys):
        p = tmp_path / "textonly.jsonl"
        p.write_text(json.dumps({"id": "c", "turns": [
            {"speaker": "a", "text": "hi", "audio": None}]}) + "\n")
        assert main(["extract-styles", "--corpus", str(p)]) == EXIT_USAGE


class TestBuildPrompt:
    def test_valid_crop(self, capsys):
        assert main(["build-prompt", "--crop-id", "synth000:2"]) == EXIT_OK
        out = capsys.readouterr().out
        from styledialog.prompts import INPUT_STYLE_TOKEN
        assert INPUT_STYLE_TOKEN in out and "tokens:" in out

    def test_unknown_variant(self, capsys):
        assert main(["build-prompt", "--crop-id", "synth000:2",
                     "--variant", "bogus"]) == EXIT_USAGE

    def test_unknown_conversation(self, capsys):
        assert main(["build-prompt", "--crop-id", "ghost:1"]) == EXIT_USAGE

    def test_crop_out_of_range(self, capsys):
        assert main(["build-prompt", "--crop-id", "synth000:99"]) == EXIT_USAGE
