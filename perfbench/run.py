"""Benchmark for ecgbalance: end-to-end runs of the CLI, plus a traced replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload study_cme --seed 0 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times whole ``ecgbalance`` processes: it repeats the
workload's commands until ``--seconds`` run out, checking every output,
and before each pass times ``SETUP_PROBES`` set-up probes (process launch
to package imported and spec parsed). ``--trace 1`` runs the commands once
untraced, then replays them in-process three times (a warm-up, a plain
pass, and a pass with a span around every call into a layer), and reports
the per-layer metrics. The last line of standard output is one JSON
object; the lines before it are a readable report. Each run is also appended to
``--results`` (default ``.perfbench_results/runs.jsonl``) for compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import host
import tracing
import workloads as wl

# Set-up probes before each pass. The host's speed drifts within seconds, so
# probes spread over the run give a steadier median than one burst at the start.
SETUP_PROBES = 4
# A run must end within 180 s; no single command may outlive this.
HARD_LIMIT_S = 170.0

PROBE = """\
import sys, time
import ecgbalance.cli
from ecgbalance.experiment import parse_experiment_spec, parse_kv_file, synth_spec_from_mapping
if sys.argv[2] == "experiment":
    parse_experiment_spec(sys.argv[1])
else:
    synth_spec_from_mapping(parse_kv_file(sys.argv[1]))
print(repr(time.monotonic()), ecgbalance.cli.__file__)
"""


class Abort(Exception):
    """The checkout cannot be benchmarked; exit without a result."""


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    macro_f1: float = math.nan
    digest: str = ""
    command_wall_s: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: wl.Workload, seed: int, seconds: int):
        self.root = root
        self.w = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.hard_deadline = self.started + HARD_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.scratch = root / ".perfbench_tmp" / f"{os.getpid()}"
        self._n = 0

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], cwd: Path) -> Proc:
        """Run one process to completion; CPU and peak RSS include its children."""
        logs = self.scratch / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        out_path, err_path = logs / "stdout", logs / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    start_new_session=True)
            pidfd = os.pidfd_open(proc.pid)
            try:
                budget = max(1.0, self.hard_deadline - time.monotonic())
                if not select.select([pidfd], [], [], budget)[0]:
                    os.killpg(proc.pid, signal.SIGKILL)
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the whole process group down with us
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                    out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def ecgbalance(self, args: list[str], cwd: Path) -> Proc:
        return self.spawn([sys.executable, "-m", "ecgbalance", *args], cwd)

    def workdir(self) -> Path:
        self._n += 1
        d = self.scratch / f"work{self._n}"
        d.mkdir(parents=True)
        return d

    # -- inputs --------------------------------------------------------------

    def study(self) -> bool:
        return bool(self.w.grid)

    def commands(self, cwd: Path) -> list[list[str]]:
        if self.study():
            (cwd / "spec.txt").write_text(wl.study_spec_text(self.w, self.seed))
            return [wl.study_command(self.w)]
        return wl.cli_commands(self.seed, self.root)

    def expected_rows(self) -> int:
        return self.w.cells if self.study() else wl.beta_sweep_rows(self.root)

    def ops(self) -> int:
        """Operations one command stands for: a study's command runs one fit per cell (one seed)."""
        return self.expected_rows() if self.study() else 1

    # -- set-up --------------------------------------------------------------

    def setup_probe(self) -> float:
        cwd = self.workdir()
        if self.study():
            spec, kind = cwd / "spec.txt", "experiment"
            spec.write_text(wl.study_spec_text(self.w, self.seed))
        else:
            spec, kind = self.root / wl.DATASET_SPEC, "synth"
        t0 = time.monotonic()
        p = self.spawn([sys.executable, "-c", PROBE, str(spec), kind], cwd)
        shutil.rmtree(cwd)
        if p.code != 0:
            raise Abort(f"cannot import ecgbalance from {self.root / 'src'}:\n{p.stderr.strip()}")
        t_ready, module = p.stdout.split()
        if not Path(module).resolve().is_relative_to((self.root / "src").resolve()):
            raise Abort(f"ecgbalance was imported from {module}, not from this checkout")
        return float(t_ready) - t0

    # -- one untraced iteration ----------------------------------------------

    def iteration(self) -> Iteration:
        cwd = self.workdir()
        it = Iteration()
        f1 = []
        broken = False
        t0 = time.perf_counter()
        for argv in self.commands(cwd):
            n = self.ops()
            it.attempted += n
            if broken:
                it.failed += n
                continue
            p = self.ecgbalance(argv, cwd)
            it.command_wall_s[argv[0]] = p.wall_s
            it.cpu_s += p.cpu_s
            it.rss_mb = max(it.rss_mb, p.rss_mb)
            try:
                if p.code != 0:
                    raise wl.CheckFailed(f"exit {p.code}: {p.stderr.strip()[-400:]}")
                if argv[0] == "experiment":
                    f1 = wl.check_results_csv(cwd / "results.csv", self.expected_rows())
                elif argv[0] == "eval":
                    wl.check_eval_stdout(p.stdout)
            except wl.CheckFailed as exc:
                it.failed += n
                it.errors.append(f"{argv[0]}: {exc}")
                broken = True
        it.wall_s = time.perf_counter() - t0
        if f1:
            it.macro_f1 = statistics.fmean(f1)
        it.digest = wl.tree_digest(cwd)
        shutil.rmtree(cwd)
        return it

    # -- traced replay -------------------------------------------------------

    def experiment_jobs(self) -> int:
        argv = (wl.study_command(self.w) if self.study()
                else next(a for a in wl.cli_commands(self.seed, self.root) if a[0] == "experiment"))
        return int(argv[argv.index("--jobs") + 1])

    def replay(self, untraced: Iteration, tracer: tracing.Tracer | None) -> Iteration:
        """One in-process pass, traced when a tracer is given; its outputs must match ``untraced``'s."""
        cwd = self.workdir()
        commands = self.commands(cwd)
        it = Iteration(attempted=self.ops() * len(commands))
        t0 = time.perf_counter()
        try:
            codes, stdout = tracing.replay(commands, cwd, tracer)
            it.wall_s = time.perf_counter() - t0
            for argv, code in zip(commands, codes):
                if code != 0:
                    raise wl.CheckFailed(f"{argv[0]} returned {code}")
            it.macro_f1 = statistics.fmean(wl.check_results_csv(cwd / "results.csv", self.expected_rows()))
            if "eval" in stdout:
                wl.check_eval_stdout(stdout["eval"])
            it.digest = wl.tree_digest(cwd)
            if it.digest != untraced.digest:
                raise wl.CheckFailed("in-process outputs differ from the untraced run's")
        except Exception:  # a failing replay is a failed run, reported with its traceback
            it.failed = it.attempted
            it.errors.append(f"{'traced' if tracer else 'in-process'}: " + traceback.format_exc(limit=4))
            it.wall_s = time.perf_counter() - t0
        shutil.rmtree(cwd)
        return it

    def traced(self, untraced: Iteration):
        """Three in-process passes: a warm-up, a plain one and a traced one.

        Returns the per-layer metrics, the passes and the tracer. The
        warm-up pays the first-call costs (lazy imports, allocator growth)
        so that the tracing overhead compares two warm passes.
        """
        if str(self.root / "src") not in sys.path:
            sys.path.insert(0, str(self.root / "src"))
        import ecgbalance.cli

        if not Path(ecgbalance.cli.__file__).resolve().is_relative_to((self.root / "src").resolve()):
            raise Abort(f"ecgbalance was imported from {ecgbalance.cli.__file__}, not from this checkout")

        warmup = self.replay(untraced, None)
        plain = self.replay(untraced, None)
        tracer = tracing.Tracer(run_id=f"{self.w.name}-seed{self.seed}-pid{os.getpid()}")
        traced = self.replay(untraced, tracer)
        tracing.micro(tracer)
        metrics = tracing.layer_metrics(tracer, self.experiment_jobs(),
                                        untraced.command_wall_s.get("experiment", math.nan),
                                        plain.wall_s, traced.wall_s)
        return metrics, [warmup, plain, traced], tracer


# ---------------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, and the count.

    Samples from failed passes (NaN) are left out; with none left the median is None.
    """
    xs = sorted(v for v in values if math.isfinite(v))
    n = len(xs)
    if not xs:
        return {"median": None, "n": 0}
    out = {"median": statistics.median(xs), "n": n, "min": xs[0], "max": xs[-1]}
    if n >= 11:
        out[f"p{math.floor(100 * (n - 10) / n)}"] = xs[n - 11]
    return out


def run_workload(root: Path, benchmark: dict, w: wl.Workload, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; returns its full record, result line included."""
    bench = Bench(root, w, seed, seconds)
    why = next((x["why"] for x in benchmark["workloads"] if x["name"] == w.name), None)
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace), "started": time.time(),
              "rationale": {"why": why, "stresses": w.stresses, "bypasses": w.bypasses,
                            "default_seed": wl.DEFAULT_SEED, "heldout_seed": wl.HELDOUT_SEED},
              "host": host.host_record()}
    try:
        if trace:
            untraced = bench.iteration()
            metrics, replays, tracer = bench.traced(untraced)
            iters = [untraced, *replays]
            record["layers"] = {k: {"value": v if v is None or math.isfinite(v) else None, "unit": u}
                                for k, (v, u) in metrics.items()}
            record["self_s"] = dict(sorted(tracing.self_times(tracer.spans).items(), key=lambda kv: -kv[1]))
            record["spans"] = [vars(s) for s in tracer.spans]
            result_metrics = {m["name"]: record["layers"][m["name"]] for m in benchmark["per_layer"]}
        else:
            setup, iters, passes = [], [], []
            while True:
                t0 = time.monotonic()
                setup += [bench.setup_probe() for _ in range(SETUP_PROBES)]
                iters.append(bench.iteration())
                passes.append(time.monotonic() - t0)
                # Another pass starts if half of it fits, so a run overruns --seconds by at most half a
                # pass; stopping earlier would cost study_raw (13 s passes) a third of its samples.
                pass_s = statistics.median(passes)
                now = time.monotonic()
                if now + pass_s / 2 > bench.deadline or now + pass_s > bench.hard_deadline:
                    break
            first = iters[0].digest
            for i in iters[1:]:
                if i.digest != first and i.failed == 0:
                    i.failed = i.attempted
                    i.errors.append(f"output digest {i.digest[:12]} differs from the first iteration's {first[:12]}")
            samples = {
                "wall_s": [i.wall_s for i in iters],
                "setup_s": setup,
                "cpu_s": [i.cpu_s for i in iters],
                "peak_rss_mb": [i.rss_mb for i in iters],
                "macro_f1": [i.macro_f1 for i in iters],
            }
            record["samples"] = samples
            record["summary"] = {k: summarize(v) for k, v in samples.items()}
            result_metrics = {m["name"]: {"value": record["summary"][m["name"]]["median"], "unit": m["unit"]}
                              for m in benchmark["end_to_end"]}
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            bench.scratch.parent.rmdir()
    record["ended"] = time.time()
    record["digest"] = iters[0].digest
    record["iterations"] = [vars(i) for i in iters]
    attempted = sum(i.attempted for i in iters)
    failed = sum(i.failed for i in iters)
    record["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    return record


def report(record: dict, out) -> None:
    """The readable lines printed before the result line."""
    r = record["result"]
    h = record["host"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{r['attempted']} operations, {r['failed']} failed, output digest {record['digest'][:16]}", file=out)
    print(f"#   host: {h['nproc']} cpus ({h['cpu_model']}), numpy {h['numpy']}, BLAS {h['blas'].get('name')} "
          f"{h['blas'].get('version')} with {h['blas_threads_detected']} threads, thread env {h['thread_env'] or 'unset'}",
          file=out)
    for it in record["iterations"]:
        for e in it["errors"]:
            print("#   FAILED " + e.rstrip().replace("\n", "\n#     "), file=out)
    if record["trace"]:
        for k, v in record["layers"].items():
            value = "not exercised" if v["value"] is None else f"{v['value']:14.6g} {v['unit']}"
            print(f"#   {k:36s} {value}", file=out)
        print("#   self time by span (s):", file=out)
        for k, v in list(record["self_s"].items())[:12]:
            print(f"#     {k:34s} {v:10.4f}", file=out)
    else:
        for k, s in record["summary"].items():
            if not s["n"]:
                print(f"#   {k:12s} no successful samples", file=out)
                continue
            hi = next((f"{key} {val:.6g}" for key, val in s.items() if key.startswith("p")), "p-high n/a (n < 11)")
            unit = r["metrics"][k]["unit"]
            print(f"#   {k:12s} median {s['median']:.6g} {unit}  min {s['min']:.6g}  max {s['max']:.6g}  "
                  f"{hi}  n {s['n']}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help=f"one of {sorted(wl.WORKLOADS)}, or 'all' for those BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=None, help=f"workload seed (default: {wl.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=".perfbench_results/runs.jsonl", help="JSONL file each run is appended to")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        for path in ("BENCHMARK.json", "src/ecgbalance/__init__.py", wl.DATASET_SPEC, wl.BETA_SWEEP_SPEC):
            if not (root / path).is_file():
                raise Abort(f"{path} not found: run from the root of an ecgbalance checkout")
        benchmark = json.loads((root / "BENCHMARK.json").read_text())
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        if args.workload == "all":
            names = [x["name"] for x in benchmark["workloads"]]
        elif args.workload in wl.WORKLOADS:
            names = [args.workload]
        else:
            raise Abort(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)} or 'all'")
        records = []
        for name in names:
            w = wl.WORKLOADS[name]
            seed = wl.DEFAULT_SEED if args.seed is None else args.seed
            records.append(run_workload(root, benchmark, w, seed, seconds, bool(args.trace)))
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=str) + "\n")
    for rec in records:
        report(rec, sys.stdout)
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
