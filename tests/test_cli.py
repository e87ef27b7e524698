import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from styledialog import dialog, objectives
from styledialog.audioio import read_wav, write_wav
from styledialog.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE,
                             bundled_corpus_path, calibration_path, main)
from styledialog.components import _synthesis_seed
from styledialog.dialog import AudioClip
from conftest import sine_clip, write_empty_wav

GOLDEN = Path(__file__).parent / "golden"
CORPUS = str(bundled_corpus_path())


def one_error_line(capsys) -> bool:
    err = capsys.readouterr().err
    return len([line for line in err.splitlines() if "error:" in line]) == 1


def write_800hz_wav(path):
    """A 16-bit mono WAV sampled below twice the top of the pitch band."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(path, AudioClip.from_samples(800, np.full(800, 0.25)))


class TestArgHandling:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["run", "--out", "/tmp/x"]) == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK


# CPython's own SHA-256 module: _sha256 up to 3.11, _sha2 from 3.12
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
# (text, prosodic values, acoustic values) of three synthesis seeds
SEED_PAYLOADS = [("hello there", (0.5,) * 8, (0.1,) * 8),
                 ("", tuple(i / 7 for i in range(8)), (-1.0, 0.0, 2.5, 1e-300, 3, 0.25, 1, 0)),
                 ("naïve café — 你好", (0.9,) * 8, (0.3, 0.2, 0.1, 0, 0, 0.1, 0.2, 0.3))]
# prints the seeds of SEED_PAYLOADS
SEEDS_CODE = ("from styledialog.components import _synthesis_seed; "
              "from styledialog.dialog import StyleVector as S; "
              "print(*[_synthesis_seed(t, S(p, 'prosodic'), S(a, 'acoustic')) "
              f"for t, p, a in {ascii(SEED_PAYLOADS)}])")


class TestStartup:
    """A fresh interpreter: the package root loads no NumPy, the CLI starts
    NumPy with one BLAS thread unless the user chose a count, and no command
    loads OpenSSL where CPython has its own SHA-256."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def child(self, code, **env_set):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(env_set, PYTHONPATH=self.SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stderr == ""
        return done.stdout.split()

    def test_package_root_loads_no_numpy(self):
        assert self.child("import sys, styledialog; print('numpy' in sys.modules)") == ["False"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_runs_one_blas_thread(self):
        code = ("import os, styledialog.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
        assert self.child(code) == ["1", "1"]

    def test_user_thread_count_is_kept(self):
        code = "import os, styledialog.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.child(code, OPENBLAS_NUM_THREADS="2") == ["2"]

    def test_cli_loads_no_openssl(self):
        """Importing the CLI loads no OpenSSL: hashlib is imported only when
        a seed is computed, and `main` blocks `_hashlib` only when it runs,
        since its None entry would count as loaded here."""
        assert self.child("import sys, styledialog.cli; print('_hashlib' in sys.modules)") \
            == ["False"]

    @pytest.mark.skipif(not BUILTIN_SHA256, reason="needs CPython's built-in SHA-256")
    @pytest.mark.parametrize("command", ["ingest", "run", "evaluate", "gradcheck"])
    def test_command_loads_no_openssl(self, tmp_path, command):
        """Each command exits 0 with `_hashlib` blocked.  `ingest` (with
        --write-audio, which writes every clip) and `run` synthesize, so they
        load numpy.random too, whose import of `secrets` is the other route
        to OpenSSL."""
        run = ["run", "--corpus", CORPUS, "--crops", "1", "--out", str(tmp_path / "run")]
        argv = {"ingest": ["ingest", "--corpus", CORPUS, "--write-audio",
                           "--out", str(tmp_path / "ingest")],
                "run": run,
                "evaluate": ["evaluate", "--generated", str(tmp_path / "run"),
                             "--reference", CORPUS],
                "gradcheck": ["gradcheck", "--trials", "1"]}[command]
        if command == "evaluate":
            assert main(run) == EXIT_OK
        code = (f"import sys; from styledialog.cli import main; exit_code = main({argv!r}); "
                "print(exit_code, sys.modules.get('_hashlib') is None, "
                "'numpy.random' in sys.modules)")
        exit_code, blocked, rng_loaded = self.child(code)[-3:]
        assert (exit_code, blocked) == ("0", "True")
        if command in ("ingest", "run"):
            assert rng_loaded == "True"

    @staticmethod
    def openssl_seeds() -> list[str]:
        """The seeds of SEED_PAYLOADS in this process, whose hashlib.sha256
        is OpenSSL's."""
        _hashlib = pytest.importorskip("_hashlib")
        assert hashlib.sha256 is _hashlib.openssl_sha256
        return [str(_synthesis_seed(t, dialog.StyleVector(p, "prosodic"),
                                    dialog.StyleVector(a, "acoustic")))
                for t, p, a in SEED_PAYLOADS]

    @pytest.mark.skipif(not BUILTIN_SHA256, reason="needs CPython's built-in SHA-256")
    def test_blocked_seed_is_openssl_seed(self):
        """The built-in SHA-256 a blocked CLI process uses gives OpenSSL's seeds."""
        code = ("import sys; from styledialog.cli import main; "
                "assert main(['gradcheck', '--trials', '1']) == 0; "
                "print(sys.modules.get('_hashlib') is None); " + SEEDS_CODE)
        assert self.child(code)[-4:] == ["True"] + self.openssl_seeds()

    def test_no_builtin_sha256_keeps_openssl(self):
        """Without a built-in SHA-256, `main` leaves `_hashlib` importable,
        with nothing on stderr: a blocked hashlib would log an error for each
        hash it lacks and have no sha256."""
        code = ("import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
                "from styledialog.cli import main; "
                "assert main(['gradcheck', '--trials', '1']) == 0; "
                "print(sys.modules.get('_hashlib') is not None); " + SEEDS_CODE)
        assert self.child(code)[-4:] == ["True"] + self.openssl_seeds()


class TestSimulate:
    def test_calibrated_output(self, capsys):
        assert main(["simulate", "--topology", "style-talker"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "style_talker" in out
        rtf = float(out.splitlines()[1].split()[1])
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

    @pytest.mark.parametrize("flag, value", [("--input-dur", "nan"), ("--output-dur", "inf"),
                                             ("--output-dur", "nan"), ("--input-dur", "0")])
    def test_duration_must_be_finite_positive(self, capsys, flag, value):
        assert main(["simulate", "--topology", "cascade", flag, value]) == EXIT_USAGE
        assert one_error_line(capsys)

    def test_token_count_must_be_finite(self, capsys):
        """1e308 s passes the duration check, but at 3 tokens/s its token
        count overflows to inf."""
        assert main(["simulate", "--topology", "cascade", "--output-dur", "1e308"]) \
            == EXIT_USAGE
        assert one_error_line(capsys)

    def test_report_must_be_finite(self, tmp_path, capsys):
        """1e300 s of input passes the duration check, but at 1e10 s per
        input second the ASR cost overflows."""
        cfg = {"latency": {"cascade": {"asr": {"per_input_audio_s": 1e10},
                                       "llm": {}, "tts": {}}}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--topology", "cascade", "--config", str(p),
                     "--input-dur", "1e300"]) == EXIT_USAGE
        assert one_error_line(capsys)

    def test_huge_output_gives_finite_delay(self, tmp_path):
        """Every cost of a 1e300 s reply is finite, and so is its delay."""
        out_file = tmp_path / "report.json"
        assert main(["simulate", "--topology", "cascade", "--output-dur", "1e300",
                     "--out", str(out_file)]) == EXIT_OK
        assert math.isfinite(json.loads(out_file.read_text())["delay_s"])

    def test_calibrated_table_is_unchanged(self, capsys):
        assert main(["simulate", "--topology", "cascade",
                     "--input-dur", "10", "--output-dur", "10"]) == EXIT_OK
        assert capsys.readouterr().out == ("Model               RTF     Delay  Carryover\n"
                                           "cascade          0.5912     2.31 s     0.00 s\n")

    def test_prints_carryover(self, capsys):
        """Background work that spills past the reply printed nothing: 1e300 s
        of input read like 10 s.  The spill is now the Carryover column."""
        assert main(["simulate", "--topology", "style-talker", "--input-dur", "1e300"]) \
            == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[-1] == "Carryover" and row.endswith(" s")
        assert float(row.split()[-2]) == pytest.approx(1e299, rel=0.1)

    @pytest.mark.parametrize("topology", ["cascade", "style-talker", "e2e"])
    @pytest.mark.parametrize("flag, value", [("--output-dur", "1e300"),
                                             ("--output-dur", "1e-300"),
                                             ("--input-dur", "1e300")])
    def test_extreme_figures_stay_narrow(self, capsys, topology, flag, value):
        """A 1e300 delay or RTF printed 300 digits; a figure too wide for its
        column now prints to three significant digits, so a line of the
        three-figure table stays under 50 characters."""
        assert main(["simulate", "--topology", topology, flag, value]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and all(len(line) < 50 for line in lines)

    def test_nan_cost(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text('{"latency": {"cascade": {"asr": {"fixed_s": NaN}, "llm": {}, "tts": {}}}}')
        out_file = tmp_path / "report.json"
        assert main(["simulate", "--topology", "cascade", "--config", str(p),
                     "--out", str(out_file)]) == EXIT_USAGE
        assert one_error_line(capsys) and not out_file.exists()


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
        assert f"{corpus}:2: rejected: record missing 'speaker'\n" in capsys.readouterr().err
        kept = [json.loads(l) for l in (out / "corpus.jsonl").read_text().splitlines()]
        assert [c["id"] for c in kept] == ["good"]

    def test_duplicate_id_is_a_check_failure(self, tmp_path, capsys):
        """Both records with id "b" were written; now the first wins and the
        second is a reject naming the first's line."""
        corpus = tmp_path / "raw.jsonl"
        records = [{"id": cid, "turns": [{"speaker": "a", "text": text}]}
                   for cid, text in (("a", "one"), ("b", "two"), ("b", "three"))]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "clean"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(out)]) \
            == EXIT_CHECK_FAILED
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rejected_records"] == [[3, "duplicate conversation id 'b', "
                                                  "first on line 2"]]
        kept = [json.loads(l) for l in (out / "corpus.jsonl").read_text().splitlines()]
        assert [(c["id"], c["turns"][0]["text"]) for c in kept] == [("a", "one"), ("b", "two")]

    def test_ingested_corpus_runs(self, tmp_path, capsys):
        """The bundled corpus ingested with or without its audio written out
        runs, scores and builds prompts as the bundled corpus does."""
        run = ["run", "--crops", "2", "--seed", "4"]
        assert main(run + ["--corpus", CORPUS, "--out", str(tmp_path / "run")]) == EXIT_OK
        styles = []
        for write_audio in (False, True):
            out = tmp_path / f"ingested_{write_audio}"
            assert main(["ingest", "--corpus", CORPUS, "--out", str(out)]
                        + ["--write-audio"] * write_audio) == EXIT_OK
            assert (out / "audio").is_dir() == write_audio
            corpus = str(out / "corpus.jsonl")
            assert main(run + ["--corpus", corpus, "--out", str(out / "run")]) == EXIT_OK
            assert (out / "run/generated.jsonl").read_bytes() == \
                   (tmp_path / "run/generated.jsonl").read_bytes()
            assert main(["evaluate", "--generated", str(out / "run"),
                         "--reference", corpus]) == EXIT_OK
            assert main(["build-prompt", "--corpus", corpus, "--crop-id", "synth000:2"]) \
                == EXIT_OK
            assert main(["extract-styles", "--corpus", corpus,
                         "--out", str(out / "styles.jsonl")]) == EXIT_OK
            styles.append((out / "styles.jsonl").read_bytes())
        assert styles[0] == styles[1]

    def test_edited_text_keeps_its_audio(self, tmp_path, capsys):
        """Normalisation shortens turn 0's text, so its audio is kept in a WAV:
        rendered again from the new text it would last 0.702625 s, not
        0.9836875 s.  The turns whose text is unchanged still write none."""
        record = json.loads(Path(CORPUS).read_text().splitlines()[0])
        record["turns"][0]["text"] = "Um, uh, could NEEDS about... think, please?"
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps(record) + "\n")
        ingested = tmp_path / "clean" / "corpus.jsonl"
        assert main(["ingest", "--corpus", str(raw), "--out", str(ingested.parent)]) == EXIT_OK
        turns = json.loads(ingested.read_text())["turns"]
        assert turns[0]["text"] == "could needs about think please"
        assert [t["audio"] for t in turns] == ["audio/synth000_0.wav"] + [None] * (len(turns) - 1)
        rows = []
        for corpus in (raw, ingested):
            out = corpus.with_suffix(".styles.jsonl")
            assert main(["extract-styles", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
            rows.append(json.loads(out.read_text().splitlines()[0]))
        assert rows[0] == rows[1]
        assert (rows[1]["source_id"], rows[1]["summary"]["duration_s"]) == ("synth000/0", 0.9836875)


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

    def test_markov_replay_writes_every_turn(self, tmp_path, capsys):
        """Turn 20 of this replay drew an empty Markov response before first
        tokens were redrawn, and `run` failed without writing anything."""
        config = json.loads(calibration_path().read_text(encoding="utf-8"))
        config.pop("_comment")
        config |= {"responder_mode": "markov", "style_mode": "context_average",
                   "target_wer": 0.1}
        components = tmp_path / "components.json"
        components.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--corpus", CORPUS, "--topology", "cascade", "--components",
                     str(components), "--crops", "40", "--seed", "0", "--out", str(out)]) \
            == EXIT_OK
        rows = (out / "generated.jsonl").read_text().splitlines()[1:]
        assert len(rows) == 40 and all(json.loads(row)["text"] for row in rows)

    # (topology, style_mode, target_wer, seed) -> sha256 of generated.jsonl and
    # of the 40 WAVs concatenated in file-name order
    MARKOV_PINS = {
        ("cascade", "last_same_speaker", 0.3, 3):
            ("d6f9debad1f628f5268fb70df5368c6b959587ee720edd721243189174f377a3",
             "de3ddf220808b9c809e6d3b2646a03aadce794a0bf215cfdb5691d01076051a5"),
        ("style-talker", "context_average", 0.1, 0):
            ("ce586cfeaf57110fd0eb817df769a1be43f576e08f76051a0d8e23915f2f8d49",
             "29314026a82c693c8bd03fdcc105e694dc7f0d0391990a4bd7bd2453904338a9"),
    }

    @pytest.mark.parametrize("topology, style_mode, wer, seed", MARKOV_PINS.keys())
    def test_markov_runs_match_pinned_hashes(self, tmp_path, capsys, topology, style_mode,
                                             wer, seed):
        """The Markov responder, the context style modes and recognizer noise
        are pinned here; the golden report covers only oracle mode."""
        config = json.loads(calibration_path().read_text(encoding="utf-8"))
        config |= {"responder_mode": "markov", "style_mode": style_mode, "target_wer": wer}
        components = tmp_path / "components.json"
        components.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--corpus", CORPUS, "--topology", topology, "--components",
                     str(components), "--crops", "40", "--seed", str(seed),
                     "--out", str(out)]) == EXIT_OK
        wavs = hashlib.sha256()
        for wav in sorted((out / "audio").glob("*.wav")):
            wavs.update(wav.read_bytes())
        generated = hashlib.sha256((out / "generated.jsonl").read_bytes()).hexdigest()
        assert (generated, wavs.hexdigest()) == \
            self.MARKOV_PINS[(topology, style_mode, wer, seed)]

    def test_no_conversation_to_crop(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"id": "c", "turns": [{"speaker": "a", "text": "hi"}]})
                          + "\n")
        out = tmp_path / "out"
        assert main(["run", "--corpus", str(corpus), "--crops", "1", "--out", str(out)]) \
            == EXIT_USAGE
        assert one_error_line(capsys) and not out.exists()


class TestRunKeepsWhatItCuts:
    """`run` keeps only the conversations its crops cut, the first --crops
    of those with two or more turns, and in Markov mode every one."""

    @given(n_conversations=st.integers(1, 6), one_turn=st.frozensets(st.integers(0, 5)),
           surplus=st.integers(-3, 3), seed=st.integers(0, 3))
    # covers, on every run, a corpus with no conversation to crop
    @example(n_conversations=2, one_turn=frozenset({0, 1}), surplus=0, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_crops_are_those_of_the_whole_corpus(self, n_conversations, one_turn, surplus,
                                                 seed):
        """--crops below, equal to and above the count E of conversations
        with two or more turns, some conversations cut to one turn: the
        crops `run` writes are `pick_crops` over the whole corpus, by
        conversation id and k, and with E = 0 both refuse the corpus."""
        from styledialog.cli import CliError, pick_crops
        from styledialog.corpus import (generate_synthetic_corpus, load_corpus,
                                        save_synthetic_corpus)
        conversations, acoustic = generate_synthetic_corpus(n_conversations, seed)
        conversations = [replace(c, turns=c.turns[:1]) if i in one_turn else c
                         for i, c in enumerate(conversations)]
        n_eligible = sum(len(c.turns) >= 2 for c in conversations)
        n_crops = max(1, n_eligible + surplus)
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp) / "corpus.jsonl", Path(tmp) / "out"
            save_synthetic_corpus(corpus, conversations, acoustic)
            whole, _ = load_corpus(corpus)
            code = main(["run", "--corpus", str(corpus), "--crops", str(n_crops),
                         "--seed", str(seed), "--out", str(out)])
            if n_eligible == 0:
                assert code == EXIT_USAGE
                with pytest.raises(CliError):
                    pick_crops(whole, n_crops, seed)
                return
            assert code == EXIT_OK
            rows = [json.loads(line)
                    for line in (out / "generated.jsonl").read_text().splitlines()[1:]]
        assert [(row["conversation_id"], row["k"]) for row in rows] == \
            [(crop.conversation_id, len(crop.context_turns))
             for crop in pick_crops(whole, n_crops, seed)]

    def test_markov_trains_on_every_conversation(self, tmp_path, capsys, monkeypatch):
        """One crop cuts one conversation, but the Markov table is trained on
        all of them, a one-turn conversation included."""
        from styledialog import cli
        from styledialog.corpus import generate_synthetic_corpus, save_synthetic_corpus
        conversations, acoustic = generate_synthetic_corpus(4, 2)
        conversations[1] = replace(conversations[1], turns=conversations[1].turns[:1])
        corpus = tmp_path / "corpus.jsonl"
        save_synthetic_corpus(corpus, conversations, acoustic)
        components = tmp_path / "components.json"
        components.write_text(json.dumps({"responder_mode": "markov"}))
        trained = []
        train_markov = cli.train_markov
        monkeypatch.setattr(cli, "train_markov",
                            lambda convs: trained.append([c.id for c in convs])
                            or train_markov(convs))
        assert main(["run", "--corpus", str(corpus), "--components", str(components),
                     "--crops", "1", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert trained == [[c.id for c in conversations]]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", "--corpus", CORPUS, "--crops", "2", "--out", str(out)]) == EXIT_OK
    return out


# edits of generated.jsonl row 1 (line 2) that are usage errors
ROW_FAULTS = {
    "missing speaker": lambda row: json.dumps({k: v for k, v in row.items() if k != "speaker"}),
    "not an object": lambda row: json.dumps([row]),
    "not JSON": lambda row: json.dumps(row)[:-1],
    "k not an int": lambda row: json.dumps(row | {"k": str(row["k"])}),
    "k a bool": lambda row: json.dumps(row | {"k": True}),
    "k negative": lambda row: json.dumps(row | {"k": -1}),
    "k zero": lambda row: json.dumps(row | {"k": 0}),
    "audio missing": lambda row: json.dumps(row | {"audio": "audio/missing.wav"}),
    "audio not a WAV": lambda row: json.dumps(row | {"audio": "generated.jsonl"}),
    "unknown conversation": lambda row: json.dumps(row | {"conversation_id": "ghost"}),
    "conversation_id not a string": lambda row: json.dumps(row | {"conversation_id": ["x"]}),
    "text not a string": lambda row: json.dumps(row | {"text": 7}),
}


class TestEvaluateInputs:
    @pytest.mark.parametrize("edit", ROW_FAULTS.values(), ids=ROW_FAULTS.keys())
    def test_generated_row_fault(self, run_dir, tmp_path, capsys, edit):
        gen = shutil.copytree(run_dir, tmp_path / "gen")
        lines = (gen / "generated.jsonl").read_text().splitlines()
        lines[1] = edit(json.loads(lines[1]))
        (gen / "generated.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--generated", str(gen), "--reference", CORPUS]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "generated.jsonl:2" in err and len(err.splitlines()) == 1

    def test_rows_keep_only_the_read_keys(self, run_dir):
        """`run` writes `style`, `rtf` and more, which `evaluate` never reads."""
        from styledialog.cli import GENERATED_KEYS, _load_generated
        rows = _load_generated(run_dir)
        assert len(rows) == 2 and all(tuple(row) == GENERATED_KEYS for _, row in rows)
        assert set(json.loads((run_dir / "generated.jsonl").read_text().splitlines()[1])) \
            > set(GENERATED_KEYS)

    def test_no_rows(self, run_dir, tmp_path, capsys):
        """A file holding only the `_config` header has nothing to score."""
        gen = shutil.copytree(run_dir, tmp_path / "gen")
        header = (gen / "generated.jsonl").read_text().splitlines()[0]
        (gen / "generated.jsonl").write_text(header + "\n")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--generated", str(gen), "--reference", CORPUS,
                     "--out", str(out)]) == EXIT_USAGE
        assert one_error_line(capsys) and not out.exists()

    def test_empty_audio(self, run_dir, tmp_path, capsys):
        """A 0-frame WAV crashed `acoustic_embedding` with a traceback."""
        gen = shutil.copytree(run_dir, tmp_path / "gen")
        write_empty_wav(gen / "audio" / "empty.wav")
        lines = (gen / "generated.jsonl").read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]) | {"audio": "audio/empty.wav"})
        (gen / "generated.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--generated", str(gen), "--reference", CORPUS]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: generated.jsonl:2: ") and "holds no audio frames" in err
        assert len(err.splitlines()) == 1

    def test_no_audio_pair_writes_null(self, tmp_path, capsys):
        """With no pair that has audio on both sides, speaker similarity is
        undefined: printed `undef` and written as null, not NaN."""
        generating = _one_turn_corpus(tmp_path)
        conv = json.loads(Path(generating).read_text())
        conv["turns"].append(conv["turns"][0] | {"speaker": "b", "text": "hello back"})
        Path(generating).write_text(json.dumps(conv) + "\n")
        # the reference's target turn has no acoustic style, so no audio
        conv["turns"][1]["synth"] = {"prosodic_style": conv["turns"][1]["synth"]["prosodic_style"]}
        reference = tmp_path / "reference.jsonl"
        reference.write_text(json.dumps(conv) + "\n")
        assert main(["run", "--corpus", generating, "--crops", "1",
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--generated", str(tmp_path / "run"),
                     "--reference", str(reference), "--out", str(out)]) == EXIT_OK
        assert "speaker_sim     undef" in capsys.readouterr().out

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")
        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["speaker_similarity"] is None and report["acoustic"] == {}

    def test_sub_khz_audio(self, run_dir, tmp_path, capsys):
        """An 800 Hz WAV crashed the analysis inside assemble_report."""
        gen = shutil.copytree(run_dir, tmp_path / "gen")
        write_800hz_wav(gen / "audio" / "low.wav")
        lines = (gen / "generated.jsonl").read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]) | {"audio": "audio/low.wav"})
        (gen / "generated.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--generated", str(gen), "--reference", CORPUS]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "generated.jsonl:2" in err and "800 Hz" in err and len(err.splitlines()) == 1


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
    "target_wer a bool": ({"target_wer": True}, []),
    "tokens_per_output_second a bool": ({"tokens_per_output_second": True}, []),
    "cost a bool": ({"latency": {"style_talker": ST_ZERO | {"asr": {"fixed_s": True}}}}, []),
    "cost a string": ({"latency": {"style_talker": ST_ZERO | {"asr": {"fixed_s": "1e3"}}}}, []),
    "cost past the float range":
        ({"latency": {"style_talker": ST_ZERO | {"asr": {"fixed_s": 10 ** 400}}}}, []),
    "top-level list": ([{"responder_mode": "markov"}], []),
    "NaN cost": ({"latency": {"style_talker": ST_ZERO | {"asr": {"fixed_s": float("nan")}}}}, []),
    "unknown topology": (None, ["--topology", "bogus"]),
    "no crops": (None, ["--crops", "0"]),
}


def _one_turn_corpus(tmp_path):
    p = tmp_path / "one.jsonl"
    p.write_text(json.dumps({"id": "c", "turns": [
        {"speaker": "a", "text": "hi there", "audio": None,
         "synth": {"prosodic_style": [0.4, 0.05, 0.1, 0.02, 0.6, 0.3, 0.05, 0.95],
                   "acoustic_style": [0.5] * 8}}]}) + "\n")
    return str(p)


def _file(tmp_path):
    (tmp_path / "file").write_text("x")
    return str(tmp_path / "file")


def _dir(tmp_path):
    (tmp_path / "dir").mkdir()
    return str(tmp_path / "dir")


def _generated_is_a_dir(tmp_path):
    (tmp_path / "gen" / "generated.jsonl").mkdir(parents=True)
    return str(tmp_path / "gen")


def _below_a_file(tmp_path):
    return str(Path(_file(tmp_path)) / "sub")


def _holding(tmp_path, name, is_dir):
    """A directory that holds `name` as a directory, or else as a file."""
    out = tmp_path / "holder"
    out.mkdir()
    (out / name).mkdir() if is_dir else (out / name).write_text("x")
    return str(out)


def _run_out_holding(name, is_dir):
    return lambda tmp, run: ["run", "--corpus", CORPUS, "--crops", "1",
                             "--out", _holding(tmp, name, is_dir)]


def _ingest_out_holding(name, is_dir):
    """`--write-audio`, so a load that the check let through would render."""
    return lambda tmp, run: ["ingest", "--corpus", _one_turn_corpus(tmp), "--write-audio",
                             "--out", _holding(tmp, name, is_dir)]


# argv of each command given a path it cannot write or read
UNUSABLE_PATHS = {
    "ingest out is a file": lambda tmp, run: ["ingest", "--corpus", _one_turn_corpus(tmp),
                                              "--out", _file(tmp)],
    "run out is a file": lambda tmp, run: ["run", "--corpus", CORPUS, "--crops", "1",
                                           "--out", _file(tmp)],
    "evaluate out is a dir": lambda tmp, run: ["evaluate", "--generated", str(run),
                                               "--reference", CORPUS, "--out", _dir(tmp)],
    "simulate out is a dir": lambda tmp, run: ["simulate", "--topology", "e2e",
                                               "--out", _dir(tmp)],
    "extract-styles out is a dir": lambda tmp, run: ["extract-styles", "--corpus",
                                                     _one_turn_corpus(tmp), "--out", _dir(tmp)],
    "generated.jsonl is a dir": lambda tmp, run: ["evaluate", "--generated",
                                                  _generated_is_a_dir(tmp),
                                                  "--reference", CORPUS],
    "ingest out is below a file": lambda tmp, run: ["ingest", "--corpus", _one_turn_corpus(tmp),
                                                    "--out", _below_a_file(tmp)],
    "run out is below a file": lambda tmp, run: ["run", "--corpus", CORPUS, "--crops", "1",
                                                 "--out", _below_a_file(tmp)],
    "evaluate out is below a file": lambda tmp, run: ["evaluate", "--generated", str(run),
                                                      "--reference", CORPUS,
                                                      "--out", _below_a_file(tmp)],
    "simulate out is below a file": lambda tmp, run: ["simulate", "--topology", "e2e",
                                                      "--out", _below_a_file(tmp)],
    "extract-styles out is below a file": lambda tmp, run: ["extract-styles", "--corpus",
                                                            _one_turn_corpus(tmp),
                                                            "--out", _below_a_file(tmp)],
    "run out holds a generated.jsonl dir": _run_out_holding("generated.jsonl", True),
    "run out holds an audio file": _run_out_holding("audio", False),
    "ingest out holds a corpus.jsonl dir": _ingest_out_holding("corpus.jsonl", True),
    "ingest out holds an ingest_report.json dir": _ingest_out_holding("ingest_report.json", True),
    "ingest out holds an audio file": _ingest_out_holding("audio", False),
}


@pytest.fixture
def work(monkeypatch):
    """The names of the per-crop, per-clip or per-turn work functions
    called: a command fails on a bad input before that work."""
    from styledialog import acoustics, cli, components, metrics
    called = []
    for module, name in ((cli, "run_dialog"), (metrics, "assemble_report"),
                         (acoustics, "encode_style"), (cli, "simulate_turn"),
                         (components.ToySynthesizer, "synthesize")):
        monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name))
    return called


def assert_one_usage_error(code, capsys) -> str:
    """The `error:` line of a command that exited 2 with nothing on stdout
    and one `error:` line, and no traceback, on stderr."""
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in err
    return errors[0]


class TestUnusablePaths:
    @pytest.mark.parametrize("argv", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS.keys())
    def test_is_a_usage_error(self, run_dir, tmp_path, capsys, work, argv):
        assert_one_usage_error(main(argv(tmp_path, run_dir)), capsys)
        assert work == []

    def test_below_a_file_names_the_file(self, tmp_path, capsys):
        file = _file(tmp_path)
        out = str(Path(file) / "sub" / "report.json")
        assert main(["simulate", "--topology", "e2e", "--out", out]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: --out {out} is below {file}, "
                                           "which is not a directory\n")

    def test_ingest_refuses_a_file_out_before_the_load(self, tmp_path, capsys, monkeypatch):
        """`ingest` rendered all 124 bundled clips before a file --out
        failed its mkdir."""
        from styledialog import corpus
        loads = []
        monkeypatch.setattr(corpus, "load_corpus", lambda *args: loads.append(args))
        out = _file(tmp_path)
        assert main(["ingest", "--corpus", CORPUS, "--out", out]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out {out} is not a directory\n"
        assert loads == []

    @pytest.mark.parametrize("command, name, is_dir", [
        ("run", "generated.jsonl", True), ("run", "audio", False),
        ("ingest", "corpus.jsonl", True), ("ingest", "ingest_report.json", True),
        ("ingest", "audio", False)])
    def test_out_contents_refused_before_the_load(self, tmp_path, capsys, monkeypatch,
                                                  command, name, is_dir):
        """A name `run` or `ingest` writes inside --out is checked with
        --out: `run --crops 20` rendered 20 incoming turns, and `ingest` all
        124 bundled clips, before the write there failed."""
        from styledialog import corpus
        loads = []
        monkeypatch.setattr(corpus, "load_corpus", lambda *args: loads.append(args))
        out = _holding(tmp_path, name, is_dir)
        assert main([command, "--corpus", CORPUS, "--out", out]) == EXIT_USAGE
        which = "" if is_dir else "not "
        assert capsys.readouterr() == (
            "", f"error: --out {out} holds {name}, which is {which}a directory\n")
        assert loads == []


class TestInputFaults:
    """Inputs that escaped `main` as a traceback and exit 1, or made a
    command refuse a whole corpus for one record."""

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_config_not_utf8(self, tmp_path, capsys, work, command):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"_comment": "\xff"}\n')
        out = str(tmp_path / "out")
        argv = {"simulate": ["simulate", "--topology", "e2e", "--config", str(config)],
                "run": ["run", "--corpus", CORPUS, "--crops", "1", "--components", str(config),
                        "--out", out]}[command]
        error = assert_one_usage_error(main(argv), capsys)
        assert error.startswith(f"error: cannot read config {config}: 'utf-8' codec")
        assert work == []

    def test_markov_run_on_a_corpus_without_words(self, tmp_path, capsys, work):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"id": "c", "turns": [{"speaker": "a", "text": ""},
                                                           {"speaker": "b", "text": " "}]})
                          + "\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"responder_mode": "markov"}))
        out = tmp_path / "out"
        code = main(["run", "--corpus", str(corpus), "--components", str(config),
                     "--crops", "1", "--out", str(out)])
        assert assert_one_usage_error(code, capsys) == \
            "error: cannot train a bigram table on a corpus with no words"
        assert work == [] and not out.exists()

    def test_generated_row_not_utf8_names_its_line(self, run_dir, tmp_path, capsys, work):
        """A byte that is not UTF-8 in one generated.jsonl row is reported at
        its line and its byte in the row, not at an offset in the file."""
        gen = shutil.copytree(run_dir, tmp_path / "gen")
        lines = (gen / "generated.jsonl").read_bytes().splitlines(keepends=True)
        lines.insert(2, b'{"crop": 9, "conversation_id": "bad\xff"}\n')
        (gen / "generated.jsonl").write_bytes(b"".join(lines))
        code = main(["evaluate", "--generated", str(gen), "--reference", CORPUS])
        assert assert_one_usage_error(code, capsys) == \
            "error: generated.jsonl:3: line is not valid UTF-8 at byte 36"
        assert work == []

    @pytest.mark.parametrize("command", ["build-prompt", "extract-styles"])
    def test_a_byte_not_utf8_rejects_only_its_record(self, tmp_path, capsys, command):
        corpus = tmp_path / "c.jsonl"
        lines = Path(CORPUS).read_bytes().splitlines(keepends=True)[:3]
        corpus.write_bytes(b"".join(lines) + b'{"id": "bad\xff", "turns": []}\n')
        argv = {"build-prompt": ["--crop-id", "synth000:2"], "extract-styles": []}[command]
        assert main([command, "--corpus", str(corpus)] + argv) == EXIT_OK
        rejected = [line for line in capsys.readouterr().err.splitlines() if "rejected:" in line]
        assert rejected == [f"{corpus}:4: rejected: line is not valid UTF-8 at byte 12"]


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

    def test_unknown_key_names_the_accepted_keys(self, tmp_path, capsys):
        """A key no config may hold, such as the flag-given seed, is named, with
        every key that `CONFIG_KEYS` derives from RunConfig."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 3}))
        assert main(["simulate", "--topology", "e2e", "--config", str(p)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: config {p} has unknown key(s) seed; accepted: _comment, latency, "
            "responder_mode, style_mode, target_wer, tokens_per_output_second\n")

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


def _empty_incoming_corpus():
    """The bundled corpus with the text of synth001's turn 1 emptied, so it
    loads without audio."""
    rows = [json.loads(line) for line in Path(CORPUS).read_text().splitlines()]
    for row in rows:
        if row["id"] == "synth001":
            row["turns"][1]["text"] = ""
    return rows


def _two_turn_corpus(b_synth, b_text="hello you"):
    full = {"prosodic_style": [0.5] * 8, "acoustic_style": [0.5] * 8}
    return [{"id": "c", "turns": [
        {"speaker": "a", "text": "hi there", "audio": None, "synth": full},
        {"speaker": "b", "text": b_text, "audio": None, "synth": b_synth or full}]}]


def _run_failing(tmp_path, rows, crops):
    """`run` on a corpus of `rows` with `crops` crops, seed 0; its exit code."""
    p = tmp_path / "corpus.jsonl"
    p.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return main(["run", "--corpus", str(p), "--crops", crops, "--seed", "0",
                 "--out", str(tmp_path / "out")])


class TestRunCropFailure:
    """A crop that fails is an error row in generated.jsonl, with no WAV, and
    one error line naming its turn and cause, not a traceback.  The other
    crops are written as usual, and `run` exits 1."""

    @pytest.mark.parametrize("rows, crops, errors", [
        (_empty_incoming_corpus, "40",
         {i: ("synth001", "ValueError: incoming turn has no audio") for i in (1, 21)}),
        (lambda: _two_turn_corpus({"prosodic_style": [0.5] * 8}), "1",
         {0: ("c", "KeyError: \"no acoustic style for 'b' in 'c'\"")}),
        (lambda: _two_turn_corpus(None, b_text=""), "1",
         {0: ("c", "ValueError: cannot synthesize empty text")})],
        ids=["incoming without audio", "no acoustic style", "empty target text"])
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, rows, crops, errors):
        assert _run_failing(tmp_path, rows(), crops) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"error: turn {i} (conversation {cid!r}) failed: {error}"
            for i, (cid, error) in errors.items()]
        assert "Traceback" not in err
        out = tmp_path / "out"
        rows = [json.loads(line) for line in (out / "generated.jsonl").read_text().splitlines()]
        assert [row["crop"] for row in rows[1:]] == list(range(int(crops)))
        for row in rows[1:]:
            if row["crop"] in errors:
                assert row.keys() == {"crop", "conversation_id", "k", "error"}
                assert (row["conversation_id"], row["error"]) == errors[row["crop"]]
            else:
                assert "error" not in row and (out / row["audio"]).is_file()
        assert len(list((out / "audio").iterdir())) == int(crops) - len(errors)

    def test_evaluate_skips_error_rows(self, tmp_path, capsys):
        assert _run_failing(tmp_path, _empty_incoming_corpus(), "40") == EXIT_CHECK_FAILED
        capsys.readouterr()
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--generated", str(tmp_path / "out"), "--reference",
                     str(tmp_path / "corpus.jsonl"), "--out", str(out)]) == EXIT_OK
        assert "evaluate: skipped 2 error rows" in capsys.readouterr().err.splitlines()
        assert json.loads(out.read_text())["semantic"]["bleu"] == 100.0

    def test_only_error_rows_is_a_usage_error(self, tmp_path, capsys):
        assert _run_failing(tmp_path, _two_turn_corpus(None, b_text=""), "1") == EXIT_CHECK_FAILED
        capsys.readouterr()
        assert main(["evaluate", "--generated", str(tmp_path / "out"), "--reference",
                     str(tmp_path / "corpus.jsonl")]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "evaluate: skipped 1 error rows"
        assert err[1].startswith("error: ") and err[1].endswith("holds no rows to score")


class TestOneAnalysisPerClip:
    """The NCCF core and `hnr` run once per analysed clip, though
    extract-styles asks each clip for both its style and its summary."""

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

    def test_extract_styles_hnr_once(self, tmp_path, capsys, monkeypatch):
        from styledialog import acoustics
        calls = []
        hnr = acoustics.hnr
        monkeypatch.setattr(acoustics, "hnr", lambda features: calls.append(1) or hnr(features))
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", CORPUS, "--out", str(out)]) == EXIT_OK
        assert len(calls) == 124

    @pytest.mark.parametrize("write_audio", [False, True], ids=["synth", "wav"])
    def test_extract_styles_makes_floats_once(self, tmp_path, capsys, monkeypatch,
                                              write_audio):
        """Loaded audio is held as 16-bit PCM, and each read of a clip's
        samples makes its floats anew: extract-styles makes them once per
        clip, whether the clip is rendered or read from a WAV."""
        corpus = CORPUS
        if write_audio:
            assert main(["ingest", "--corpus", CORPUS, "--out", str(tmp_path / "wav"),
                         "--write-audio"]) == EXIT_OK
            corpus = str(tmp_path / "wav" / "corpus.jsonl")
        made = []
        from_pcm = dialog.from_pcm
        monkeypatch.setattr(dialog, "from_pcm",
                            lambda pcm: made.append(id(pcm)) or from_pcm(pcm))
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", corpus, "--out", str(out)]) == EXIT_OK
        assert len(made) == len(set(made)) == len(out.read_text().splitlines()) == 124

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

    def test_inject_error_fails(self, capsys, monkeypatch):
        grad = objectives.grad_style_loss

        def wrong_w(*args):
            gw, gb = grad(*args)
            return -gw, gb

        monkeypatch.setattr(objectives, "grad_style_loss", wrong_w)
        assert main(["gradcheck", "--trials", "2"]) == EXIT_CHECK_FAILED

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

    @pytest.mark.parametrize("entry, value", [(4, -1e300), (5, 1e300)])
    def test_extreme_style_renders(self, tmp_path, capsys, entry, value):
        """An HNR of -1e300 overflowed the noise level and a rate of 1e300
        rendered an empty clip; both are clamped to what the encoder reports."""
        style = [0.4, 0.05, 0.1, 0.02, 0.6, 0.3, 0.05, 0.95]
        style[entry] = value
        p = tmp_path / "extreme.jsonl"
        p.write_text(json.dumps({"id": "c", "turns": [
            {"speaker": "a", "text": "hi there", "audio": None,
             "synth": {"prosodic_style": style, "acoustic_style": [0.5] * 8}}]}) + "\n")
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", str(p), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1

    def test_no_audio(self, tmp_path, capsys):
        p = tmp_path / "textonly.jsonl"
        p.write_text(json.dumps({"id": "c", "turns": [
            {"speaker": "a", "text": "hi", "audio": None}]}) + "\n")
        assert main(["extract-styles", "--corpus", str(p)]) == EXIT_USAGE

    def test_empty_wav_is_a_reject(self, tmp_path, capsys):
        """A 0-frame WAV crashed `encode_style` with a traceback; now its
        record is a reject and the other conversations are still extracted."""
        write_empty_wav(tmp_path / "empty.wav")
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"id": "empty", "turns": [
            {"speaker": "a", "text": "hi", "audio": "empty.wav"}]}) + "\n"
            + Path(_one_turn_corpus(tmp_path)).read_text())
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", str(p), "--out", str(out)]) == EXIT_OK
        assert [json.loads(l)["source_id"] for l in out.read_text().splitlines()] == ["c/0"]
        rejects = [line for line in capsys.readouterr().err.splitlines() if "rejected" in line]
        assert len(rejects) == 1 and rejects[0].startswith(f"{p}:1: rejected: ")
        assert "holds no audio frames" in rejects[0]

    def test_sub_khz_wav_is_a_reject(self, tmp_path, capsys):
        """An 800 Hz WAV crashed the analysis; now its record is a reject,
        reported on stderr, and the other conversations are still extracted."""
        write_800hz_wav(tmp_path / "low.wav")
        synth = {"prosodic_style": [0.4, 0.05, 0.1, 0.02, 0.6, 0.3, 0.05, 0.95],
                 "acoustic_style": [0.5] * 8}
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"id": "good", "turns": [
            {"speaker": "a", "text": "hi there", "audio": None, "synth": synth}]}) + "\n"
            + json.dumps({"id": "low", "turns": [
                {"speaker": "a", "text": "hi", "audio": "low.wav"}]}) + "\n")
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", str(p), "--out", str(out)]) == EXIT_OK
        assert [json.loads(l)["source_id"] for l in out.read_text().splitlines()] == ["good/0"]
        rejects = [line for line in capsys.readouterr().err.splitlines() if "rejected" in line]
        assert len(rejects) == 1 and rejects[0].startswith(f"{p}:2: rejected: ")


def _out_of_range_style_corpus(tmp_path) -> Path:
    """Two two-turn conversations, "good" and, on line 2, "huge", whose
    second turn's first prosodic style entry is a 401-digit integer."""
    huge = {"prosodic_style": [10 ** 400] + [0.5] * 7, "acoustic_style": [0.5] * 8}
    rows = [_two_turn_corpus(None)[0] | {"id": "good"}, _two_turn_corpus(huge)[0] | {"id": "huge"}]
    p = tmp_path / "corpus.jsonl"
    p.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return p


class TestOutOfRangeStyle:
    """A style entry too large for a float crashed every corpus command with
    an OverflowError traceback; now its record is one reject, reported on
    stderr, and the other conversation loads."""

    @staticmethod
    def one_reject_on_line_2(capsys, p) -> bool:
        rejects = [line for line in capsys.readouterr().err.splitlines() if "rejected" in line]
        return len(rejects) == 1 and rejects[0].startswith(f"{p}:2: rejected: ")

    def test_extract_styles(self, tmp_path, capsys):
        p = _out_of_range_style_corpus(tmp_path)
        out = tmp_path / "styles.jsonl"
        assert main(["extract-styles", "--corpus", str(p), "--out", str(out)]) == EXIT_OK
        assert [json.loads(l)["source_id"] for l in out.read_text().splitlines()] == \
            ["good/0", "good/1"]
        assert self.one_reject_on_line_2(capsys, p)

    def test_evaluate(self, tmp_path, capsys):
        """No row names "huge", and its reject is still printed."""
        p = _out_of_range_style_corpus(tmp_path)
        out = tmp_path / "run"
        assert main(["run", "--corpus", str(p), "--crops", "1", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["evaluate", "--generated", str(out), "--reference", str(p)]) == EXIT_OK
        assert self.one_reject_on_line_2(capsys, p)


class TestBuildPrompt:
    def test_valid_crop(self, capsys):
        assert main(["build-prompt", "--crop-id", "synth000:2"]) == EXIT_OK
        out = capsys.readouterr().out
        from styledialog.prompts import INPUT_STYLE_TOKEN
        assert INPUT_STYLE_TOKEN in out and "tokens:" in out

    def test_unknown_variant(self, capsys):
        assert main(["build-prompt", "--crop-id", "synth000:2",
                     "--variant", "bogus"]) == EXIT_USAGE

    def test_unknown_variant_is_refused_before_the_load(self, capsys, monkeypatch):
        from styledialog import corpus
        loads = []
        monkeypatch.setattr(corpus, "load_corpus", lambda *args: loads.append(args))
        assert main(["build-prompt", "--crop-id", "synth000:2",
                     "--variant", "bogus"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown prompt variant 'bogus'\n"
        assert loads == []

    def test_unknown_conversation(self, capsys):
        assert main(["build-prompt", "--crop-id", "ghost:1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown conversation 'ghost'\n"

    @pytest.mark.parametrize("crop_id", ["synth000", "synth000:", "synth000:two"])
    def test_malformed_crop_id(self, capsys, crop_id):
        assert main(["build-prompt", "--crop-id", crop_id]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: --crop-id must be <conversation>:"
                                           f"<turn index>, got {crop_id!r}\n")

    def test_crop_out_of_range(self, capsys):
        assert main(["build-prompt", "--crop-id", "synth000:99"]) == EXIT_USAGE

    @pytest.mark.parametrize("b_synth, message", [
        (None, "turn by 'b' has no prosodic style"),
        ({"prosodic_style": [0.5] * 8}, "no acoustic style for 'b' in 'c'")],
        ids=["no prosodic style", "no acoustic style"])
    def test_missing_style(self, tmp_path, capsys, b_synth, message):
        """Speaker b's turns lack the prosodic style a context turn needs, or
        the acoustic style a reference needs."""
        a_synth = {"prosodic_style": [0.5] * 8, "acoustic_style": [0.5] * 8}
        turns = [{"speaker": speaker, "text": "hi there", "audio": None, "synth": synth}
                 for speaker, synth in [("a", a_synth), ("b", b_synth)] * 2]
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"id": "c", "turns": turns}) + "\n")
        assert main(["build-prompt", "--corpus", str(p), "--crop-id", "c:3"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"


    @pytest.mark.parametrize("where", ["turn text", "speaker", "conversation id"])
    def test_reserved_token(self, tmp_path, capsys, where):
        """A style token inside a corpus string failed an internal check
        with a traceback; it is a usage error naming the string."""
        from styledialog.prompts import OUTPUT_STYLE_TOKEN
        synth = {"prosodic_style": [0.5] * 8, "acoustic_style": [0.5] * 8}
        turns = [{"speaker": speaker, "text": "hi there", "audio": None, "synth": synth}
                 for speaker in ("a", "b", "a")]
        conv_id = "c"
        if where == "turn text":
            turns[0]["text"] = f"hello {OUTPUT_STYLE_TOKEN} there"
        elif where == "speaker":
            turns[1]["speaker"] = f"b{OUTPUT_STYLE_TOKEN}"
        else:
            conv_id = f"c{OUTPUT_STYLE_TOKEN}"
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"id": conv_id, "turns": turns}) + "\n")
        assert main(["build-prompt", "--corpus", str(p), "--crop-id", f"{conv_id}:2"]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("holds a reserved style token\n")
        assert len(err.splitlines()) == 1


class TestRenderOnlyWhatIsRead:
    """Commands render the synth-backed turns whose audio they read, and no
    others: 124 clips of the bundled corpus are synth-backed."""

    @pytest.fixture
    def synth_calls(self, monkeypatch):
        from styledialog.components import ToySynthesizer
        calls = []
        synthesize = ToySynthesizer.synthesize
        monkeypatch.setattr(ToySynthesizer, "synthesize",
                            lambda self, *args: calls.append(args[0]) or synthesize(self, *args))
        return calls

    def test_run_and_evaluate(self, tmp_path, capsys, synth_calls):
        run_dir = tmp_path / "run"
        assert main(["run", "--corpus", CORPUS, "--crops", "5", "--out", str(run_dir)]) \
            == EXIT_OK
        assert len(synth_calls) == 5 + 5  # each crop's incoming turn and its response
        synth_calls.clear()
        assert main(["evaluate", "--generated", str(run_dir), "--reference", CORPUS]) \
            == EXIT_OK
        assert len(synth_calls) == 5  # each crop's reference turn

    def test_build_prompt(self, capsys, synth_calls):
        assert main(["build-prompt", "--crop-id", "synth000:2"]) == EXIT_OK
        assert synth_calls == []


class TestStreaming:
    """`run` writes each crop out before it synthesizes the next, and
    `evaluate` reads each generated WAV only when its pair is scored, so the
    audio either holds does not grow with the number of crops."""

    def test_run_writes_each_crop_before_the_next(self, tmp_path, capsys, monkeypatch):
        from styledialog.components import ToySynthesizer
        out = tmp_path / "out"
        on_disk = []  # the WAVs `run` has written when each clip is synthesized
        synthesize = ToySynthesizer.synthesize

        def spy(self, *args):
            on_disk.append(len(list(out.glob("audio/*.wav"))))
            return synthesize(self, *args)
        monkeypatch.setattr(ToySynthesizer, "synthesize", spy)
        assert main(["run", "--corpus", CORPUS, "--crops", "5", "--out", str(out)]) == EXIT_OK
        # the load renders the 5 incoming turns, then crop i is synthesized
        # once crops 0 to i - 1 are written
        assert on_disk == [0] * 5 + [0, 1, 2, 3, 4]

    def test_evaluate_reads_each_wav_after_the_last_is_summarized(self, tmp_path, capsys,
                                                                 monkeypatch):
        from styledialog import acoustics, audioio
        run_dir = tmp_path / "run"
        assert main(["run", "--corpus", CORPUS, "--crops", "4", "--out", str(run_dir)]) \
            == EXIT_OK
        events = []
        read_wav, summarize = audioio.read_wav, acoustics.summarize

        def read_spy(*args, **kwargs):
            clip = read_wav(*args, **kwargs)
            events.append(("read", clip))
            return clip

        def summarize_spy(clip):
            events.append(("summarize", clip))
            return summarize(clip)
        monkeypatch.setattr(audioio, "read_wav", read_spy)
        monkeypatch.setattr(acoustics, "summarize", summarize_spy)
        assert main(["evaluate", "--generated", str(run_dir), "--reference", CORPUS]) \
            == EXIT_OK
        reads = [i for i, (kind, _) in enumerate(events) if kind == "read"]
        assert len(reads) == 4
        for before, after in zip(reads, reads[1:]):
            clip = events[before][1]
            assert any(kind == "summarize" and c is clip for kind, c in events[before:after])

    def test_evaluate_lets_each_reference_go_once_scored(self, tmp_path, capsys, monkeypatch):
        """The load renders every reference clip, but `evaluate` holds each
        only until its pair is scored: when a pair's reference is
        summarized, the references of the pairs before the last are gone.
        The reference corpus held them all until the end."""
        from styledialog import acoustics
        from styledialog.corpus import SynthAudio
        run_dir = tmp_path / "run"
        assert main(["run", "--corpus", CORPUS, "--crops", "6", "--out", str(run_dir)]) \
            == EXIT_OK
        refs, alive = [], []
        summarize = acoustics.summarize

        def spy(clip):
            if isinstance(clip, SynthAudio):  # a reference; the generated clips are WAVs
                alive.append(sum(ref() is not None for ref in refs[:-1]))
                refs.append(weakref.ref(clip))
            return summarize(clip)
        monkeypatch.setattr(acoustics, "summarize", spy)
        assert main(["evaluate", "--generated", str(run_dir), "--reference", CORPUS]) \
            == EXIT_OK
        assert len(refs) == 6 and alive == [0] * 6

    @staticmethod
    def _peak_bytes(argv) -> int:
        """The traced peak of the memory `main(argv)` allocates."""
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evaluate_peak_does_not_grow_with_rows(self, run_dir, tmp_path, capsys):
        """40 rows peak less than one clip's PCM above 10 rows, every row
        naming one reference turn and a copy of one 5 s WAV.  Each row and
        its scores are held, a few kB, so the clip is long enough for its
        PCM to stand well above 30 rows."""
        header, line = (run_dir / "generated.jsonl").read_text().splitlines()[:2]
        row = json.loads(line)
        clip = sine_clip(220.0, 5.0)
        write_wav(tmp_path / "clip.wav", clip)

        def argv(n):
            gen = tmp_path / f"gen{n}"
            (gen / "audio").mkdir(parents=True)
            lines = [header]
            for i in range(n):
                wav = f"audio/gen_{i:04d}.wav"
                shutil.copy(tmp_path / "clip.wav", gen / wav)
                lines.append(json.dumps(row | {"crop": i, "audio": wav}))
            (gen / "generated.jsonl").write_text("\n".join(lines) + "\n")
            return ["evaluate", "--generated", str(gen), "--reference", CORPUS]

        small, large = argv(10), argv(40)
        self._peak_bytes(small)  # lazy imports and first-call caches
        growth = self._peak_bytes(large) - self._peak_bytes(small)
        assert growth < clip.pcm.nbytes

    @pytest.fixture(scope="class")
    def synth200(self, tmp_path_factory):
        """A 200-conversation synthetic corpus and a file of its first 20 lines."""
        from styledialog.corpus import generate_synthetic_corpus, save_synthetic_corpus
        tmp = tmp_path_factory.mktemp("synth200")
        whole, head = tmp / "corpus.jsonl", tmp / "head.jsonl"
        save_synthetic_corpus(whole, *generate_synthetic_corpus(200, 1))
        head.write_text("".join(whole.read_text().splitlines(keepends=True)[:20]))
        return whole, head

    def test_evaluate_peak_does_not_grow_with_unnamed_conversations(self, synth200, tmp_path,
                                                                    capsys):
        """`evaluate` holds only the reference conversations its rows name:
        20 crops of a 200-conversation corpus name its first 20, and the
        whole file peaks less than 100 kB above those 20 lines alone.  It
        peaked 1.3 MB above them when every conversation was held."""
        whole, head = synth200
        run_dir = tmp_path / "run"
        assert main(["run", "--corpus", str(whole), "--crops", "20", "--out", str(run_dir)]) \
            == EXIT_OK

        def argv(reference):
            return ["evaluate", "--generated", str(run_dir), "--reference", str(reference)]

        # lazy imports, first-call caches and CPython's tuple free list, which
        # keeps up to 2000 freed style tuples (about 200 kB) from a first parse
        self._peak_bytes(argv(whole))
        assert self._peak_bytes(argv(whole)) - self._peak_bytes(argv(head)) < 100_000

    def test_run_peak_does_not_grow_with_uncut_conversations(self, synth200, tmp_path,
                                                             capsys):
        """`run --crops 20` holds only the 20 conversations its crops cut: on
        the 200-conversation corpus it peaks less than 100 kB above the same
        run on the file's first 20 lines, and writes the same rows.  It
        peaked about 1.3 MB above them when every conversation was held."""
        whole, head = synth200

        def argv(corpus, out):
            return ["run", "--corpus", str(corpus), "--crops", "20",
                    "--out", str(tmp_path / out)]

        self._peak_bytes(argv(whole, "warm"))  # as in the evaluate test above
        grown = self._peak_bytes(argv(whole, "whole")) - self._peak_bytes(argv(head, "head"))
        assert grown < 100_000
        assert (tmp_path / "whole" / "generated.jsonl").read_bytes() == \
            (tmp_path / "head" / "generated.jsonl").read_bytes()

    def test_build_prompt_peak_does_not_grow_with_other_conversations(self, synth200, capsys):
        """`build-prompt` holds only its crop's conversation: on the
        200-conversation corpus it peaks less than 100 kB above the same
        crop on the file's first 20 lines, and prints the same prompt.  It
        peaked 1.3 MB above them when every conversation was held."""
        whole, head = synth200

        def prompt(corpus):
            capsys.readouterr()
            peak = self._peak_bytes(["build-prompt", "--corpus", str(corpus),
                                     "--crop-id", "synth000:2"])
            return peak, capsys.readouterr().out

        prompt(whole)  # as in the evaluate test above
        (whole_peak, whole_out), (head_peak, head_out) = prompt(whole), prompt(head)
        assert whole_peak - head_peak < 100_000
        assert whole_out == head_out

    def test_run_peak_does_not_grow_with_crops(self, tmp_path, capsys):
        """40 crops peak less than one generated clip's PCM above 10 crops
        on one two-turn conversation, where every crop has the same incoming
        turn.  The reply is 40 words, so its clip stands well above the
        rows `run` holds until it writes generated.jsonl."""
        corpus = tmp_path / "corpus.jsonl"
        rows = _two_turn_corpus(None, b_text=" ".join(["hello you"] * 20))
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))

        def argv(n):
            return ["run", "--corpus", str(corpus), "--crops", str(n),
                    "--out", str(tmp_path / f"out{n}")]

        self._peak_bytes(argv(10))  # lazy imports and first-call caches
        growth = self._peak_bytes(argv(40)) - self._peak_bytes(argv(10))
        assert growth < read_wav(tmp_path / "out10" / "audio" / "gen_0000.wav").pcm.nbytes
