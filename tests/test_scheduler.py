import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from styledialog.cli import calibration_path
from styledialog.components import ToyResponder
from styledialog.dialog import make_crop
from styledialog.scheduler import (ConfigurationError, LatencyModel, RunConfig, SimReport,
                                   Topology, run_dialog, simulate_turn)
from conftest import acoustic, make_conversation
from oracles import stall_free_delay_brute

ZERO = {s: LatencyModel() for s in ("asr", "llm", "audio_llm", "tts", "style_enc", "e2e")}


def nonstreaming(asr=1.0, llm=0.8, tts=0.5):
    return {
        "asr": LatencyModel(fixed_s=asr),
        "llm": LatencyModel(fixed_s=llm),
        "audio_llm": LatencyModel(fixed_s=llm),
        "tts": LatencyModel(fixed_s=tts),
        "style_enc": LatencyModel(),
        "e2e": LatencyModel(fixed_s=asr + llm + tts),
    }


class TestLatencyModel:
    def test_affine_evaluation(self):
        m = LatencyModel(fixed_s=0.5, per_input_audio_s=0.1,
                         per_output_token_s=0.02, per_output_audio_s=0.3)
        assert m.evaluate(10.0, 30, 10.0) == pytest.approx(0.5 + 1.0 + 0.6 + 3.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(fixed_s=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            LatencyModel(per_output_audio_s=value)

    @pytest.mark.parametrize("value", [True, "1e3", None])
    def test_non_number_rejected(self, value):
        with pytest.raises(ConfigurationError):
            LatencyModel.from_dict({"fixed_s": value})

    def test_from_dict(self):
        m = LatencyModel.from_dict({"fixed_s": 0.2, "per_output_token_s": 0.04})
        assert m.fixed_s == 0.2 and m.per_output_token_s == 0.04


class TestRunConfig:
    @pytest.mark.parametrize("latencies, fields", [
        ({s: LatencyModel() for s in ("audio_llm", "tts", "asr")}, {}),
        (ZERO, {"responder_mode": "parrot"}),
        (ZERO, {"style_mode": "loud"}),
        (ZERO, {"target_wer": -0.1}),
        (ZERO, {"target_wer": 1.5}),
        (ZERO, {"target_wer": True}),
    ])
    def test_rejected(self, latencies, fields):
        with pytest.raises(ConfigurationError):
            RunConfig(Topology.STYLE_TALKER, latencies, **fields)

    def test_topology_name_coerced(self):
        assert RunConfig("cascade", ZERO).topology is Topology.CASCADE


class TestTopology:
    def test_parse_aliases(self):
        assert Topology.parse("style-talker") is Topology.STYLE_TALKER
        assert Topology.parse("e2e") is Topology.E2E_SPEECH
        with pytest.raises(ValueError):
            Topology.parse("hybrid")


def streaming(prefix=1.0, c=0.5, topology=Topology.CASCADE):
    """Zero costs except a fixed `prefix` before synthesis and a tts that
    streams at c seconds per output audio second."""
    lat = dict(ZERO)
    lat["llm" if topology is Topology.CASCADE else "audio_llm"] = LatencyModel(fixed_s=prefix)
    lat["tts"] = LatencyModel(per_output_audio_s=c)
    return lat


def critical_end(report):
    return [e for e in report.timeline if e.lane == "critical"][-1].end_s


class TestStallFreeDelay:
    """`simulate_turn`'s closed-form delay against the production curve it
    stands for: audio is produced linearly over the last c*out_dur seconds
    of the critical lane."""

    def test_instantaneous(self):
        # c = 0: all audio appears at once when the critical lane ends
        for topology in (Topology.CASCADE, Topology.STYLE_TALKER):
            rep = simulate_turn(topology, 10.0, 30, 10.0, nonstreaming(), prev_carryover=0.3)
            assert rep.delay_s == critical_end(rep)

    def test_instantaneous_e2e(self):
        lat = {"e2e": LatencyModel(fixed_s=0.3, per_input_audio_s=0.07,
                                   per_output_audio_s=1.7)}
        rep = simulate_turn(Topology.E2E_SPEECH, 10.0, 30, 10.0, lat, prev_carryover=0.3)
        assert rep.delay_s == critical_end(rep)
        assert rep.delay_s == pytest.approx(0.3 + 0.3 + 0.7 + 17.0)

    def test_fast_stream(self):
        # 2 audio-s per wall-s from t=1: playback starts with production
        for topology in (Topology.CASCADE, Topology.STYLE_TALKER):
            rep = simulate_turn(topology, 10.0, 30, 10.0, streaming(1.0, 0.5, topology))
            assert rep.delay_s == 1.0 and critical_end(rep) == 6.0

    def test_slow_stream_closed_form(self):
        # 0.5 audio-s per wall-s from t=1.5: playback ends as production does
        for topology in (Topology.CASCADE, Topology.STYLE_TALKER):
            rep = simulate_turn(topology, 10.0, 30, 10.0, streaming(1.5, 2.0, topology))
            assert rep.delay_s == 1.5 + 10.0 * (2.0 - 1.0) == critical_end(rep) - 10.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(topology=st.sampled_from([Topology.CASCADE, Topology.STYLE_TALKER]),
           c=st.sampled_from([0.3, 0.999, 1.0, 1.7]),
           costs=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
           input_dur=st.floats(0.1, 20.0), out_dur=st.floats(0.5, 20.0),
           carryover=st.floats(0.0, 5.0))
    def test_matches_brute_force_scan(self, topology, c, costs, input_dur, out_dur,
                                      carryover):
        fixed, per_in, per_token, tts_fixed = costs
        lat = {stage: LatencyModel(fixed_s=fixed, per_input_audio_s=per_in,
                                   per_output_token_s=per_token) for stage in ZERO}
        lat["tts"] = LatencyModel(fixed_s=tts_fixed, per_output_audio_s=c)
        rep = simulate_turn(topology, input_dur, 30, out_dur, lat, prev_carryover=carryover)
        end = critical_end(rep)
        production = [(0.0, 0.0), (end - c * out_dur, 0.0), (end, out_dur)]
        assert rep.delay_s == pytest.approx(stall_free_delay_brute(production, out_dur),
                                            abs=1e-6)

    def test_calibrated_turn_pinned(self):
        """The calibrated 10 s in / 10 s out turn, exact to the last bit:
        `run` writes these floats into generated.jsonl."""
        config = json.loads(calibration_path().read_text())
        pins = {Topology.CASCADE: (0.5912000000000001, 2.3100000000000005),
                Topology.STYLE_TALKER: (0.38730000000000003, 1.5300000000000002),
                Topology.E2E_SPEECH: (1.3820000000000001, 13.82)}
        for topology, (rtf, delay) in pins.items():
            lat = {stage: LatencyModel.from_dict(d)
                   for stage, d in config["latency"][topology.value].items()}
            rep = simulate_turn(topology, 10.0, 30, 10.0, lat)
            assert (rep.rtf, rep.delay_s, rep.carryover_s) == (rtf, delay, 0.0)


class TestSimulateTurn:
    def test_zero_latencies(self):
        for topo in Topology:
            rep = simulate_turn(topo, 10.0, 30, 10.0, ZERO)
            assert rep.rtf == 0.0 and rep.delay_s == 0.0 and rep.carryover_s == 0.0

    def test_hand_summed_cascade(self):
        rep = simulate_turn(Topology.CASCADE, 10.0, 30, 10.0, nonstreaming())
        assert rep.delay_s == pytest.approx(2.3)
        assert rep.rtf == pytest.approx(2.3 / 10.0)

    def test_hand_summed_style_talker(self):
        rep = simulate_turn(Topology.STYLE_TALKER, 10.0, 30, 10.0, nonstreaming())
        assert rep.delay_s == pytest.approx(1.3)
        assert rep.carryover_s == 0.0

    def test_rtf_additivity(self):
        lat = nonstreaming(asr=0.7, llm=1.1, tts=0.4)
        rep = simulate_turn(Topology.CASCADE, 10.0, 30, 10.0, lat)
        assert rep.rtf * 10.0 == pytest.approx(0.7 + 1.1 + 0.4)

    def test_missing_stage(self):
        with pytest.raises(ConfigurationError):
            simulate_turn(Topology.CASCADE, 10.0, 30, 10.0, {"asr": LatencyModel()})

    def test_zero_output_rejected(self):
        with pytest.raises(ValueError):
            simulate_turn(Topology.CASCADE, 10.0, 30, 0.0, ZERO)

    def test_carryover_shifts_delay(self):
        lat = nonstreaming()
        base = simulate_turn(Topology.CASCADE, 10.0, 30, 10.0, lat)
        shifted = simulate_turn(Topology.CASCADE, 10.0, 30, 10.0, lat,
                                prev_carryover=0.7)
        assert shifted.delay_s == pytest.approx(base.delay_s + 0.7)
        assert shifted.rtf == pytest.approx(base.rtf)

    def test_background_carryover(self):
        # background asr 3s > playback 2s -> carryover 1s
        lat = dict(ZERO)
        lat["asr"] = LatencyModel(fixed_s=3.0)
        rep = simulate_turn(Topology.STYLE_TALKER, 10.0, 4, 2.0, lat)
        assert rep.carryover_s == pytest.approx(1.0)

    def test_timeline_lanes_legal(self):
        rep = simulate_turn(Topology.STYLE_TALKER, 10.0, 30, 10.0, nonstreaming())
        critical = [e for e in rep.timeline if e.lane == "critical"]
        for a, b in zip(critical, critical[1:]):
            assert b.start_s >= a.end_s - 1e-12
        for e in rep.timeline:
            if e.lane == "background":
                assert e.start_s >= rep.delay_s - 1e-12

    def test_determinism(self):
        a = simulate_turn(Topology.CASCADE, 10.0, 30, 10.0, nonstreaming())
        b = simulate_turn(Topology.CASCADE, 10.0, 30, 10.0, nonstreaming())
        assert a == b


class TestCriticalPathIdentity:
    def test_thousand_random_configs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            asr = float(rng.uniform(0.05, 2.0))
            llm = float(rng.uniform(0.05, 2.0))
            tts = float(rng.uniform(0.05, 2.0))
            lat = nonstreaming(asr=asr, llm=llm, tts=tts)
            out_dur = float(rng.uniform(5.0, 15.0))
            style = simulate_turn(Topology.STYLE_TALKER, 10.0, 30, out_dur, lat)
            casc = simulate_turn(Topology.CASCADE, 10.0, 30, out_dur, lat)
            if style.carryover_s == 0.0:
                assert style.delay_s < casc.delay_s
                assert casc.delay_s - style.delay_s == pytest.approx(asr, abs=1e-9)


class TestRunDialog:
    @staticmethod
    def _reference_styles(conv):
        """The reference styles of `conv` alone; another conversation is a KeyError."""
        refs = {}
        for t in conv.turns:
            refs.setdefault(t.speaker, (t.prosodic_style, acoustic([0.5] * 8)))
        return {conv.id: refs}.__getitem__

    def test_oracle_zero_latency(self):
        conv = make_conversation(n_turns=4)
        refs = self._reference_styles(conv)
        crops = [make_crop(conv, 1)]
        results = run_dialog(RunConfig(Topology.STYLE_TALKER, ZERO), crops, refs)
        assert results[0].generated.text == conv.turns[1].text
        assert results[0].report.delay_s == 0.0

    def test_cascade_uses_recognized_text(self):
        conv = make_conversation(n_turns=4)
        refs = self._reference_styles(conv)
        crops = [make_crop(conv, 2)]
        results = run_dialog(RunConfig(Topology.CASCADE, ZERO), crops, refs)
        assert results[0].recognized_text == conv.turns[1].text

    @pytest.mark.parametrize("topology", list(Topology))
    def test_generator_hears_what_its_lanes_allow(self, topology, monkeypatch):
        """The earlier turns, the same objects; the cascade, whose ASR runs
        before its generator, also hears the incoming turn as recognized,
        with its speaker's reference prosodic style."""
        conv = make_conversation(n_turns=4)
        refs = self._reference_styles(conv)
        crop = make_crop(conv, 3)
        heard = []
        respond = ToyResponder.respond

        def spy(self, crop, context, **kwargs):
            heard.append(context)
            return respond(self, crop, context, **kwargs)
        monkeypatch.setattr(ToyResponder, "respond", spy)
        [result] = run_dialog(RunConfig(topology, ZERO, target_wer=0.5), [crop], refs)

        [context] = heard
        earlier = crop.context_turns[:-1]
        assert all(e is t for e, t in zip(context.entries, earlier))
        if topology is Topology.CASCADE:
            assert len(context.entries) == len(earlier) + 1
            last = context.entries[-1]
            incoming = crop.incoming_turn.speaker
            assert last.speaker == incoming
            assert last.text == result.recognized_text != crop.incoming_turn.text
            assert last.prosodic_style == refs(conv.id)[incoming][0]
        else:
            assert len(context.entries) == len(earlier)

    def test_carryover_chains_turns(self):
        conv = make_conversation(n_turns=4)
        refs = self._reference_styles(conv)
        lat = dict(ZERO)
        lat["asr"] = LatencyModel(fixed_s=30.0)  # longer than any playback
        crops = [make_crop(conv, 1), make_crop(conv, 2)]
        results = run_dialog(RunConfig(Topology.STYLE_TALKER, lat), crops, refs)
        assert results[0].report.carryover_s > 0
        assert results[1].report.delay_s >= results[0].report.carryover_s

    def test_error_annotated_with_turn(self):
        conv = make_conversation(n_turns=4)
        refs = self._reference_styles(conv)
        broken = make_crop(make_conversation("other"), 1)
        with pytest.raises(RuntimeError, match="turn 0"):
            run_dialog(RunConfig(Topology.STYLE_TALKER, ZERO), [broken], refs)
