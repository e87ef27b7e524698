"""Acceptance gate.

Each test checks one release criterion end to end, with pinned tolerances,
and prints a single PASS/FAIL line.  These are the checks that decide
whether a build of the package is usable; the per-module test files cover
the finer-grained behavior.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from styledialog import acoustics, objectives
from styledialog.cli import EXIT_OK, calibration_path, bundled_corpus_path, main
from styledialog.components import ToySynthesizer
from styledialog.dialog import StyleVector
from styledialog.metrics import (bleu, cosine, greedy_embed_score, meteor_exact,
                                 pearson, rouge_l_f1, trigram_embedder,
                                 word_edit_distance)
from styledialog.prompts import PromptVariant, build_prompt
from styledialog.scheduler import LatencyModel, Topology, simulate_turn
from conftest import SR, noise_clip, sine_clip
from oracles import (bleu_brute, cosine_brute, edit_distance_brute,
                     greedy_embed_brute, meteor_brute, pearson_brute,
                     rouge_l_brute)
from test_prompts import GOLDEN, fixture_crop

REPO = Path(__file__).resolve().parent.parent


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {number} {name}: {detail}"


def _latency_map(topology):
    config = json.loads(calibration_path().read_text())
    return ({stage: LatencyModel(**d)
             for stage, d in config["latency"][topology.value].items()},
            config["tokens_per_output_second"])


def test_1_calibrated_latency_figures():
    expected = {Topology.STYLE_TALKER: (0.3873, 1.53),
                Topology.CASCADE: (0.5912, 2.31),
                Topology.E2E_SPEECH: (1.3246, 13.82)}
    t0 = time.perf_counter()
    worst = 0.0
    for topology, (want_rtf, want_delay) in expected.items():
        latencies, tok_per_s = _latency_map(topology)
        rep = simulate_turn(topology, 10.0, int(round(tok_per_s * 10.0)), 10.0,
                            latencies)
        worst = max(worst,
                    abs(rep.rtf - want_rtf) / want_rtf,
                    abs(rep.delay_s - want_delay) / want_delay)
    elapsed = time.perf_counter() - t0
    _report(1, "calibrated latency figures",
            worst <= 0.10 and elapsed < 1.0,
            f"worst rel err {worst:.4f}, {elapsed:.2f}s")


def test_2_pipeline_ordering_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    ok = True
    worst_gap_err = 0.0
    for _ in range(1000):
        asr = float(rng.uniform(0.05, 2.0))
        llm = float(rng.uniform(0.05, 2.0))
        tts = float(rng.uniform(0.05, 2.0))
        lat = {"asr": LatencyModel(fixed_s=asr), "llm": LatencyModel(fixed_s=llm),
               "audio_llm": LatencyModel(fixed_s=llm),
               "tts": LatencyModel(fixed_s=tts), "style_enc": LatencyModel()}
        out_dur = float(rng.uniform(5.0, 15.0))
        style = simulate_turn(Topology.STYLE_TALKER, 10.0, 30, out_dur, lat)
        casc = simulate_turn(Topology.CASCADE, 10.0, 30, out_dur, lat)
        if style.carryover_s == 0.0:
            checked += 1
            ok = ok and style.delay_s < casc.delay_s
            worst_gap_err = max(worst_gap_err,
                                abs((casc.delay_s - style.delay_s) - asr))
    elapsed = time.perf_counter() - t0
    _report(2, "deferred-recognition delay advantage",
            ok and checked > 0 and worst_gap_err <= 1e-9 and elapsed < 10.0,
            f"{checked} zero-carryover configs, gap err {worst_gap_err:.2e}, "
            f"{elapsed:.2f}s")


def test_3_metric_brute_force_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    vocab = ["a", "b", "cat", "dog", "the", "run", "sat"]

    def sent(max_len=7):
        return " ".join(rng.choice(vocab)
                        for _ in range(int(rng.integers(1, max_len + 1))))

    worst_pct = 0.0   # percent-scale metrics
    worst_raw = 0.0   # unit-scale statistics
    for _ in range(100):
        ref, hyp = sent(), sent()
        refs = [ref, sent()]
        worst_raw = max(worst_raw, abs(
            word_edit_distance(ref.split(), hyp.split())
            - edit_distance_brute(ref.split(), hyp.split())))
        worst_pct = max(
            worst_pct,
            abs(bleu(refs, hyp) - bleu_brute(refs, hyp)),
            abs(rouge_l_f1(ref, hyp) - rouge_l_brute(ref, hyp)),
            abs(meteor_exact(ref, hyp) - meteor_brute(ref, hyp)),
            abs(greedy_embed_score(ref, hyp)
                - greedy_embed_brute(ref, hyp, trigram_embedder)))
        n = int(rng.integers(2, 12))
        x, y = rng.normal(size=n).tolist(), rng.normal(size=n).tolist()
        worst_raw = max(worst_raw,
                        abs(pearson(x, y) - pearson_brute(x, y)),
                        abs(cosine(x, y) - cosine_brute(x, y)))
    elapsed = time.perf_counter() - t0
    _report(3, "metrics match brute-force oracles",
            worst_pct <= 1e-7 and worst_raw <= 1e-9 and elapsed < 30.0,
            f"percent err {worst_pct:.2e}, unit err {worst_raw:.2e}, "
            f"{elapsed:.2f}s")


def test_4_dsp_accuracy():
    t0 = time.perf_counter()
    worst_pitch = 0.0
    amp = 0.4
    worst_rms = 0.0
    for freq in (110.0, 220.0, 330.0, 440.0):
        clip = sine_clip(freq, 1.0, amplitude=amp)
        f0, voiced = acoustics.pitch_track(clip)
        measured = float(np.mean(f0[voiced]))
        worst_pitch = max(worst_pitch, abs(measured - freq) / freq)
        rms_mean = acoustics.summarize(clip).energy_mean
        worst_rms = max(worst_rms, abs(rms_mean - amp / math.sqrt(2))
                        / (amp / math.sqrt(2)))
    sine = sine_clip(220.0, 1.0)
    mixed_samples = 0.5 * sine.samples + 0.1 * noise_clip(1.0, seed=3).samples
    from styledialog.dialog import AudioClip
    mixed = AudioClip.from_samples(SR, np.clip(mixed_samples, -1, 1))
    noise = noise_clip(1.0, seed=4)
    order_ok = (acoustics.summarize(sine).hnr_db > acoustics.summarize(mixed).hnr_db
                > acoustics.summarize(noise).hnr_db)
    elapsed = time.perf_counter() - t0
    _report(4, "signal feature accuracy",
            worst_pitch <= 0.02 and worst_rms <= 0.01 and order_ok
            and elapsed < 10.0,
            f"pitch err {worst_pitch:.4f}, rms err {worst_rms:.4f}, "
            f"hnr order {order_ok}, {elapsed:.2f}s")


def _central_diff(f, x, eps):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def test_5_gradient_checks():
    rng = np.random.default_rng(99)
    H = 6
    worst_style = 0.0
    worst_text = 0.0
    for _ in range(50):
        w = rng.normal(size=(8, H))
        b = rng.normal(size=8)
        h = rng.normal(size=H)
        target = StyleVector(values=tuple(rng.normal(size=8)), kind="prosodic")

        def loss():
            proj = objectives.ProjectionOut(weights=w.copy(), bias=b.copy())
            return objectives.style_loss(objectives.project_out(h, proj), target)

        proj = objectives.ProjectionOut(weights=w.copy(), bias=b.copy())
        pred = objectives.project_out(h, proj)
        gw, gb = objectives.grad_style_loss(target, h, proj)
        away = np.abs(pred.as_array() - target.as_array()) > 1e-6
        num_w = _central_diff(loss, w, 1e-5)
        num_b = _central_diff(loss, b, 1e-5)
        mask = np.repeat(away[:, None], H, axis=1)
        if mask.any():
            worst_style = max(worst_style, float(np.max(
                np.abs(gw - num_w)[mask] / np.maximum(np.abs(num_w)[mask], 1e-8))))
        if away.any():
            worst_style = max(worst_style, float(np.max(
                np.abs(gb - num_b)[away] / np.maximum(np.abs(num_b)[away], 1e-8))))

        logits = rng.normal(size=(5, 7))
        targets = rng.integers(1, 8, size=5)
        g = objectives.grad_text_loss(logits, targets)
        num = _central_diff(lambda: objectives.text_loss(logits, targets),
                            logits, 1e-6)
        worst_text = max(worst_text, float(np.max(
            np.abs(g - num) / np.maximum(np.abs(num), 1e-6))))
    _report(5, "analytic gradients vs finite differences",
            worst_style < 1e-4 and worst_text < 1e-6,
            f"style {worst_style:.2e}, text {worst_text:.2e}")


def test_6_prompt_golden_fidelity():
    crop, context = fixture_crop()
    ok = True
    for variant in PromptVariant:
        built = build_prompt(crop, context, variant, "fix_2.wav")
        golden = (GOLDEN / f"prompt_{variant.value}.txt").read_bytes()
        ok = ok and built.text.encode("utf-8") == golden
    _report(6, "prompt byte-identity across all variants", ok,
            f"{len(list(PromptVariant))} variants")


def test_7_style_round_trip():
    rng = np.random.default_rng(413)
    synth = ToySynthesizer()
    acoustic = StyleVector(values=tuple(rng.uniform(0.0, 1.0, 8)), kind="acoustic")
    worst = 0.0
    for _ in range(100):
        p = np.zeros(8)
        p[0] = rng.uniform(120, 350) / 500
        p[1] = rng.uniform(0.0, 0.15)
        p[2] = rng.uniform(0.05, 0.3)
        p[3] = rng.uniform(0.0, 0.1)
        p[4] = (rng.uniform(5, 35) + 20) / 60
        p[5] = rng.uniform(3, 9) / 20
        p[6] = 0.2
        p[7] = 1.0
        style = StyleVector(values=tuple(p), kind="prosodic")
        clip = synth.synthesize("the quick brown fox jumps over dogs", style,
                                acoustic)
        q = acoustics.encode_style(clip).values
        worst = max(worst, max(abs(q[c] - p[c]) for c in (0, 2, 4, 5)))
    _report(7, "style encode/synthesize round-trip", worst <= 0.08,
            f"worst controlled-component error {worst:.4f}")


def test_8_end_to_end_oracle_bound(tmp_path):
    t0 = time.perf_counter()
    corpus = str(bundled_corpus_path())
    reports = {}
    for mode in ("oracle", "markov"):
        run_dir = tmp_path / mode
        args = ["run", "--corpus", corpus, "--topology", "style-talker",
                "--crops", "5", "--seed", "0", "--out", str(run_dir)]
        if mode == "markov":
            cfg = tmp_path / "markov.json"
            cfg.write_text(json.dumps({"responder_mode": "markov"}))
            args += ["--components", str(cfg)]
        assert main(args) == EXIT_OK
        out = tmp_path / f"{mode}_report.json"
        assert main(["evaluate", "--generated", str(run_dir),
                     "--reference", corpus, "--out", str(out)]) == EXIT_OK
        reports[mode] = json.loads(out.read_text())
    elapsed = time.perf_counter() - t0
    oracle = reports["oracle"]
    defined = [v for v in oracle["acoustic"].values() if v is not None]
    ok = (oracle["semantic"]["bleu"] == pytest.approx(100.0)
          and oracle["semantic"]["wer"] == 0.0
          and len(defined) > 0
          and all(v == pytest.approx(1.0) for v in defined)
          and reports["markov"]["semantic"]["bleu"] < oracle["semantic"]["bleu"]
          and elapsed < 60.0)
    _report(8, "end-to-end oracle bound",
            ok,
            f"oracle bleu {oracle['semantic']['bleu']:.2f}, wer "
            f"{oracle['semantic']['wer']:.2f}, markov bleu "
            f"{reports['markov']['semantic']['bleu']:.2f}, {elapsed:.1f}s")


def test_9_large_scale_results_out_of_scope():
    """The toolkit ships no trained models, so listening-study and
    large-corpus benchmark magnitudes cannot be reproduced here; the README
    must say so, and the package must not pretend otherwise by bundling
    model weights."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    documented = ("## Limitations" in readme
                  and "human raters" in readme
                  and "pretrained" in readme)
    data_dir = REPO / "src" / "styledialog" / "data"
    shipped = {p.suffix for p in data_dir.iterdir()}
    no_weights = shipped <= {".json", ".jsonl"}
    _report(9, "trained-model result magnitudes documented as out of scope",
            documented and no_weights,
            f"readme documented={documented}, data files {sorted(shipped)}")
