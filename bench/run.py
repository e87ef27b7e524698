"""styledialog benchmark: CLI wall-clock time on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload crops-synth200 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Load is a closed loop with one client: ops run one after another, and each
command of an op runs in a fresh `python -m styledialog.cli` child, so
import, corpus parse and render are paid on every invocation.  With
--trace 0 the end-to-end metrics are measured with tracing off.  With
--trace 1 untraced and traced ops alternate; the traced ones record a span
per layer call (bench/traced_cli.py) and give the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metrics are the ones BENCHMARK.json lists for the
mode.  The line before it holds every metric, the simulated figures, the
provenance block, each op and the sha256 of its outputs.  See
bench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from harness import charged, median_counting_failures, run_child
from layers import op_metrics
from tracer import spans_from_json
from workloads import WORKLOADS, Inputs

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
TERM_GRACE_S = 3.0
AUX_TIMEOUT_S = 60.0
PROBE_SECONDS = 0.5
PROBE_CROPS = 20

# simulate --input-dur 10 --output-dur 10: (rtf, decimals, delay_s, decimals)
PINNED_SIMULATION = {
    "style-talker": (0.3873, 4, 1.53, 2),
    "cascade": (0.5912, 4, 2.31, 2),
    "e2e": (1.382, 3, 13.82, 2),
}


def git_commit(root: Path):
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class BenchError(Exception):
    pass


class Bench:
    def __init__(self, root: Path, work: Path, workload, seed: int, seconds: float,
                 trace: bool):
        self.root, self.work, self.workload = root, work, workload
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.reference_hashes = None

    # --- one child process ------------------------------------------------

    def child(self, name: str, cli_args, timeout_s: float, traced: bool = False):
        """Run one CLI command; returns (ChildResult, spans payload or None)."""
        spans_path = self.logs / f"{name}.spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "styledialog.cli"]
        result = run_child(argv + list(cli_args), cwd=self.work, env=self.env,
                           timeout_s=timeout_s,
                           stdout_path=self.logs / f"{name}.out",
                           stderr_path=self.logs / f"{name}.err",
                           term_grace_s=TERM_GRACE_S if traced else 0.0)
        payload = None
        if traced and spans_path.is_file():
            payload = json.loads(spans_path.read_text(encoding="utf-8"))
        return result, payload

    def last_stderr_line(self, name: str) -> str:
        lines = (self.logs / f"{name}.err").read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    # --- set-up, checks outside the timed loop -----------------------------

    def inproc(self, name: str, args) -> dict:
        """Run bench/inproc.py in a child; returns the JSON it prints."""
        argv = [sys.executable, str(BENCH_DIR / "inproc.py"), *map(str, args)]
        res = run_child(argv, cwd=self.root, env=self.env, timeout_s=AUX_TIMEOUT_S,
                        stdout_path=self.logs / f"{name}.out",
                        stderr_path=self.logs / f"{name}.err")
        if res.exit_code != 0:
            raise BenchError(f"{name} failed (exit {res.exit_code}): {self.last_stderr_line(name)}")
        return json.loads((self.logs / f"{name}.out").read_text(encoding="utf-8"))

    def setup(self):
        input_dir = self.work / "input"
        input_dir.mkdir()
        info = self.inproc("inputs", ["inputs", self.workload.name, self.seed, input_dir,
                                      SETUP_REPEATS])
        package = (self.root / "src" / "styledialog").resolve()
        if Path(info["styledialog_path"]).resolve().parent != package:
            raise BenchError(f"imported styledialog from {info['styledialog_path']}, "
                             f"not from {package}")
        self.setup_info = info
        self.inputs = Inputs(corpus=Path(info["corpus"]), corpus_sha256=info["corpus_sha256"],
                             turns=info["turns"], audio_s=info["audio_s"],
                             components=info["components"] and Path(info["components"]))

    def simulated(self) -> dict:
        """The modelled RTF and delay of each topology: checked, never timed."""
        block = {}
        for topology, (rtf_pin, rtf_dp, delay_pin, delay_dp) in PINNED_SIMULATION.items():
            out = f"sim-{topology}.json"
            res, _ = self.child("simulate", ["simulate", "--topology", topology,
                                             "--input-dur", "10", "--output-dur", "10",
                                             "--out", out], AUX_TIMEOUT_S)
            row = {"pinned_rtf": rtf_pin, "pinned_delay_s": delay_pin, "ok": False}
            if res.exit_code == 0:
                sim = json.loads((self.work / out).read_text(encoding="utf-8"))
                row.update(rtf=sim["rtf"], delay_s=sim["delay_s"])
                row["ok"] = (round(sim["rtf"], rtf_dp) == rtf_pin
                             and round(sim["delay_s"], delay_dp) == delay_pin)
            else:
                row["error"] = f"exit {res.exit_code}: {self.last_stderr_line('simulate')}"
            block[topology] = row
        return block

    def startup_s(self) -> float:
        walls = [self.child("startup", ["--help"], AUX_TIMEOUT_S)[0].wall_s
                 for _ in range(STARTUP_REPEATS)]
        return statistics.median(walls)

    # --- ops -----------------------------------------------------------------

    def run_op(self, index: int, traced: bool) -> dict:
        op_dir = self.work / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir()
        deadline = self.workload.deadline_s
        commands, spans = [], []
        failure, stuck_in = None, None
        for name, cli_args in self.workload.commands(self.inputs, self.seed):
            remaining = deadline - sum(c["wall_s"] for c in commands)
            if remaining <= 0:
                failure = f"deadline before {name}"
                break
            res, payload = self.child(name, cli_args, remaining, traced)
            commands.append({"name": name, "wall_s": res.wall_s, "exit_code": res.exit_code,
                             "maxrss_mb": res.maxrss_mb, "timed_out": res.timed_out})
            if payload is not None:
                spans.extend(spans_from_json(payload, id_offset=len(spans)))
            if res.timed_out:
                failure = f"deadline in {name}"
                if traced:
                    stuck_in = payload["open_stack"] if payload else ["(no span dump)"]
                break
            if res.exit_code != 0:
                failure = f"{name} exited {res.exit_code}: {self.last_stderr_line(name)}"
                break
        check = None
        if failure is None:
            try:
                check = self.workload.check(op_dir, self.inputs)
            except (OSError, ValueError, KeyError) as exc:
                failure = f"outputs unreadable: {exc!r}"
        if check is not None:
            if check.errors:
                failure = "; ".join(check.errors)
            elif self.reference_hashes is None:
                self.reference_hashes = check.hashes
            elif check.hashes != self.reference_hashes:
                differ = sorted(k for k in check.hashes
                                if check.hashes[k] != self.reference_hashes.get(k))
                failure = f"outputs differ from the first op with the same argv: {differ}"
        wall = sum(c["wall_s"] for c in commands)
        return {"index": index, "traced": traced, "wall_s": wall,
                "charged_s": charged(wall, failure is not None, deadline),
                "failed": failure is not None, "failure": failure, "stuck_in": stuck_in,
                "commands": commands, "check": check, "spans": spans}

    def run_ops(self) -> list:
        ops = []
        at_least = 2 if self.trace else 1
        t0 = time.perf_counter()
        while True:
            traced = self.trace and len(ops) % 2 == 1
            ops.append(self.run_op(len(ops), traced))
            if len(ops) >= at_least and time.perf_counter() - t0 >= self.seconds:
                return ops

    # --- metrics -------------------------------------------------------------

    def end_to_end(self, ops) -> dict:
        wl, deadline = self.workload, self.workload.deadline_s
        out = {
            "setup_s": (statistics.median(self.setup_info["setup_times_s"]), "s"),
            "op_s": (median_counting_failures([(o["wall_s"], o["failed"]) for o in ops],
                                              deadline), "s"),
            "failed_frac": (sum(o["failed"] for o in ops) / len(ops), "fraction"),
            "peak_rss_mb": (max(c["maxrss_mb"] for o in ops for c in o["commands"]), "MB"),
        }

        if self.inputs.audio_s:
            # the input corpus's audio sets both workloads' cost, and varies by seed
            out["op_s_per_audio_s"] = (out["op_s"][0] / self.inputs.audio_s, "s/audio-s")

        def per_unit(command, units_in_check, units_if_failed):
            vals = []
            for o in ops:
                wall = sum(c["wall_s"] for c in o["commands"] if c["name"] == command)
                units = units_in_check(o["check"]) if o["check"] else units_if_failed
                vals.append(charged(wall, o["failed"], deadline) / units)
            return statistics.median(vals)

        names = [name for name, _ in wl.commands(self.inputs, self.seed)]
        if "run" in names:
            out["run_s_per_crop"] = (per_unit("run", lambda c: wl.crops, wl.crops), "s/crop")
        if "evaluate" in names:
            out["evaluate_s_per_crop"] = (per_unit("evaluate", lambda c: c.rows, wl.crops),
                                          "s/crop")
        if "extract-styles" in names:
            out["extract_s_per_audio_s"] = (
                per_unit("extract-styles", lambda c: c.audio_s, self.inputs.audio_s),
                "s/audio-s")
        return out

    def per_layer(self, ops) -> dict:
        traced = [o for o in ops if o["traced"]]
        untraced = [o for o in ops if not o["traced"]]
        deadline = self.workload.deadline_s
        out = op_metrics(traced)
        out["cli.startup_s"] = (self.startup_s(), "s")
        out["corpus.generate_synthetic_corpus.s"] = (
            statistics.median(self.setup_info["generate_times_s"]), "s")
        probe = self.inproc("probe", ["probe", self.inputs.corpus, self.seed, PROBE_CROPS,
                                      PROBE_SECONDS])
        out.update((k, tuple(v)) for k, v in probe.items())
        median_traced = median_counting_failures(
            [(o["wall_s"], o["failed"]) for o in traced], deadline)
        median_untraced = median_counting_failures(
            [(o["wall_s"], o["failed"]) for o in untraced], deadline)
        out["trace.overhead_frac"] = (median_traced / median_untraced - 1.0, "fraction")
        return dict(sorted(out.items()))

    def markov_defect(self) -> dict:
        args = self.workload.defect_repro(self.inputs)
        res, _ = self.child("defect", args, AUX_TIMEOUT_S)
        wrote = (self.work / "op" / "defect" / "generated.jsonl").is_file()
        return {"argv": args, "exit_code": res.exit_code, "wrote_output": wrote,
                "error": self.last_stderr_line("defect"),
                "reproduced": res.exit_code == 1 and not wrote}

    # --- the whole run -----------------------------------------------------

    def run(self) -> dict:
        self.setup()
        simulated = self.simulated()
        ops = self.run_ops()
        untraced = [o for o in ops if not o["traced"]]
        e2e = self.end_to_end(untraced)
        layers = self.per_layer(ops) if self.trace else {}
        failed = sum(o["failed"] for o in ops)
        correct = (failed == 0 and self.setup_info["deterministic"]
                   and all(row["ok"] for row in simulated.values()))
        detail = {
            "workload": self.workload.name, "why": self.workload.why,
            "correct": correct, "attempted": len(ops), "failed": failed,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            "simulated": simulated,
            "provenance": self.provenance(ops),
            "outputs_sha256": self.reference_hashes,
            "ops": [{k: o[k] for k in ("index", "traced", "wall_s", "charged_s", "failed",
                                       "failure", "stuck_in", "commands")} for o in ops],
        }
        if hasattr(self.workload, "defect_repro"):
            detail["known_defects"] = {"markov_empty_response": self.markov_defect()}
        return detail

    def provenance(self, ops) -> dict:
        info = self.setup_info
        return {
            "python": info["python"],
            "numpy": info["numpy"],
            "styledialog": info["styledialog"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_commit": git_commit(self.root),
            "workload_seed": self.seed,
            "corpus_sha256": self.inputs.corpus_sha256,
            "corpus_turns": self.inputs.turns,
            "corpus_audio_s": self.inputs.audio_s,
            "setup_deterministic": info["deterministic"],
            "setup_times_s": info["setup_times_s"],
            "deadline_s": self.workload.deadline_s,
            "run_seconds": self.seconds,
            "ops_attempted": len(ops),
            "ops_traced": sum(o["traced"] for o in ops),
            "trace": self.trace,
        }


def print_report(detail: dict) -> None:
    p = detail["provenance"]
    print(f"styledialog benchmark  workload={detail['workload']}  seed={p['workload_seed']}  "
          f"trace={int(p['trace'])}")
    print(f"  {detail['why']}")
    print(f"  python {p['python']}, numpy {p['numpy']}, {p['nproc']} cpus, "
          f"commit {p['git_commit'] or 'unknown'}; {p['ops_attempted']} ops in "
          f"{p['run_seconds']} s, deadline {p['deadline_s']} s, corpus {p['corpus_turns']} "
          f"turns sha256 {p['corpus_sha256'][:12]}")
    print("end-to-end (wall clock, tracing off)")
    for name, m in detail["end_to_end"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if detail["per_layer"]:
        print("per-layer (traced ops and direct probes)")
        for name, m in detail["per_layer"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print("simulated (model figures, not wall clock): simulate --input-dur 10 --output-dur 10")
    for topology, row in detail["simulated"].items():
        print(f"  {topology:<14} rtf {row.get('rtf', float('nan')):.4f} "
              f"(pinned {row['pinned_rtf']})  delay {row.get('delay_s', float('nan')):.2f} s "
              f"(pinned {row['pinned_delay_s']})  {'ok' if row['ok'] else 'MISMATCH'}")
    for op in detail["ops"]:
        if op["failed"]:
            where = f", open spans: {' > '.join(op['stuck_in'])}" if op["stuck_in"] else ""
            print(f"  op {op['index']} failed after {op['wall_s']:.2f} s: {op['failure']}{where}")
    for name, d in detail.get("known_defects", {}).items():
        print(f"  known defect {name}: exit {d['exit_code']}, wrote output {d['wrote_output']}: "
              f"{d['error']}")


def _exit_on_sigterm(signum, frame):
    # unwinds through run_child and the work-directory cleanup
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "styledialog" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a styledialog checkout "
              "(needs src/styledialog and BENCHMARK.json)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from all, {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]

    results = []
    for name in names:
        work = root / ".bench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            detail = Bench(root, work, WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace)).run()
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass
        print_report(detail)
        print(json.dumps(detail, default=str))
        results.append(detail)
    # with several workloads each metric is prefixed by its workload's name
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(d["correct"] for d in results),
        "attempted": sum(d["attempted"] for d in results),
        "failed": sum(d["failed"] for d in results),
        "metrics": {f"{d['workload']}.{n}" if prefix else n: d[section][n]
                    for d in results for n in wanted if n in d[section]}}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
