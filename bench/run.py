"""Benchmark of the cmla audit, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-memorizer --seed 7 --seconds 20 --trace 0

Set-up writes the workload's CSVs from --seed three times, each by
bench/workloads.py in a fresh interpreter, and reports the median as setup_s;
table generation thus never sets this process's peak RSS. All audits then run
in this process, one at a time, calling cmla.cli.main with the argv a user
would type and the thread pool at its default. The first audit in a process
is the warm-up: it runs cold and pays for page faults that later audits
avoid (about 2x on sparse-auto-eps), as a one-shot `cmla audit` does. Its
time counts in setup_s, so work moved out of the steady-state audit into the
first one, or into a cache, shows there. After it, a closed loop with one
client runs audits until the next one would end after --seconds (at least
one). gate.py checks every audit, the warm-up too; `failed` counts the audits
it rejects, so failed/attempted is the failure fraction.

--trace 0 prints the end-to-end metrics: audit_s (wall, argv to last
artifact) and audit_cpu_s (process CPU, all threads), medians over the loop;
peak_rss_mb (ru_maxrss of this process, which ran only this workload's
audits); setup_s (median generation time plus the warm-up audit).

--trace 1 runs the warm-up, then a loop of untraced and traced audits in
turn, then one traced audit at CMLA_THREADS=1, and prints the per-layer
metrics of tracing.py (medians over the traced audits at the default thread
count) plus cold_audit_s (the warm-up), trace.audit_s, trace.overhead_s
(traced minus untraced audit_s) and kernels.neighbor_lists.speedup_1t
(neighbour search at one thread over the default). The self times and leaf times of one traced audit add up to its
wall time. Every run writes its results, with an environment record, to
.bench_work/BENCH_<workload>_seed<seed>_trace<0|1>.json, and a traced run
also its spans to the matching .spans.jsonl.

Which end-to-end metric each layer should move, and where:
- tables.load_csv: audit_s and peak_rss_mb on wide-real; negligible at 8k.
- encoding.encode: audit_s on wide-real; expected flat everywhere.
- kernels.neighbor_lists (.bytes -> peak_rss_mb on dense-memorizer): audit_s
  on dense-memorizer and sparse-auto-eps; small on wide-real.
- kernels.kth_neighbor_distances: audit_s on sparse-auto-eps only.
- clustering.dbscan.self_s (expansion and border assignment): audit_s and
  audit_cpu_s on dense-memorizer; near zero elsewhere.
- kernels.medoid_local_index: audit_s on dense-memorizer; small elsewhere.
- kernels.cross_min_distances: audit_s on wide-real; absent on the Gower path.
- metrics.proximity_profile_gower: audit_s on wide-real-gower only.
- metrics.curves_from_profile: audit_s and peak_rss_mb on the wide workloads.
- report.emit: audit_s everywhere, small.
- clustering.extract_medoids, audit.run_audit and cli.main self times:
  orchestration, expected near zero.

The roadmap's 32k-row memorizer case is left out: at this code it needs about
477M eps-edges (3.8 GB of int64 on a 7 GB box) and several minutes per audit,
too slow for the repeated runs a check makes. It comes back once neighbour
search runs in bounded memory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "cmla" / "__init__.py").is_file():
    sys.exit(f"run.py: no cmla sources in {SRC}; run it from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cmla import cli, kernels  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
GENERATE_TIMEOUT_S = 150


def setup(workload: workloads.Workload, seed: int, inputs: Path) -> list[float]:
    """Generate the inputs SETUP_REPEATS times; returns each wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(inputs)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=GENERATE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs audits of one workload and gates each one."""

    def __init__(self, workload: workloads.Workload, seed: int, inputs: Path, out: Path) -> None:
        self.workload = workload
        self.out = out
        self.argv = workloads.audit_argv(workload, inputs, out, seed)
        self.golden = gate.load_golden(workload.name) if seed == workloads.default_seed() else None
        self.records: list[dict] = []

    def audit(self, tracer: tracing.Tracer | None = None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        traced = tracer is not None
        if traced:
            tracer.audit += 1
            root = tracer.span(tracing.ROOT_SPAN)
        else:
            root = contextlib.nullcontext()
        stdout = io.StringIO()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with root, contextlib.redirect_stdout(stdout):
                code = cli.main(self.argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # the benchmark keeps going and counts the audit as failed
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        problems = gate.check(self.out, code, memorizer=self.workload.generator.kind == "memorizer",
                              golden=self.golden)
        for p in problems:
            print(f"run.py: {self.workload.name}: audit failed the gate: {p}", file=sys.stderr)
        record = {"audit_s": wall, "audit_cpu_s": cpu, "traced": traced,
                  "threads": kernels.thread_count(), "problems": problems}
        if traced:
            record["audit_id"] = tracer.audit
        self.records.append(record)
        return record

    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def measure(runner: Runner, seconds: float, tracer: tracing.Tracer | None = None) -> list[dict]:
    """Closed loop: audits until the next one would end after `seconds`.

    With a tracer, each step is an untraced audit followed by a traced one.
    Returns the records of the loop's audits.
    """
    first = len(runner.records)
    start = time.perf_counter()
    while True:
        step = [runner.audit()]
        if tracer is not None:
            with tracer:
                step.append(runner.audit(tracer))
        last = sum(r["audit_s"] for r in step)
        if time.perf_counter() - start + last > seconds:
            return runner.records[first:]


def untraced_metrics(runner: Runner, seconds: float, setup_times: list[float]) -> dict[str, float]:
    warm_up = runner.audit()
    loop = measure(runner, seconds)
    return {
        "audit_s": statistics.median(r["audit_s"] for r in loop),
        "audit_cpu_s": statistics.median(r["audit_cpu_s"] for r in loop),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times) + warm_up["audit_s"],
    }


def traced_metrics(runner: Runner, seconds: float, tracer: tracing.Tracer) -> dict[str, float]:
    warm_up = runner.audit()
    loop = measure(runner, seconds, tracer)
    plain = [r for r in loop if not r["traced"]]
    traced = [r for r in loop if r["traced"]]
    saved = os.environ.get("CMLA_THREADS")
    os.environ["CMLA_THREADS"] = "1"
    try:
        with tracer:
            single = runner.audit(tracer)
    finally:
        if saved is None:
            del os.environ["CMLA_THREADS"]
        else:
            os.environ["CMLA_THREADS"] = saved

    def layers(audit_id: int) -> dict[str, float]:
        return tracing.layer_metrics([s for s in tracer.spans if s.audit == audit_id])

    per_audit = [layers(r["audit_id"]) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_audit)
               for name in tracing.LAYER_UNITS}
    traced_s = statistics.median(r["audit_s"] for r in traced)
    metrics["cold_audit_s"] = warm_up["audit_s"]
    metrics["trace.audit_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.median(r["audit_s"] for r in plain)
    nb_default = metrics["kernels.neighbor_lists.s"]
    nb_single = layers(single["audit_id"])["kernels.neighbor_lists.s"]
    metrics["kernels.neighbor_lists.speedup_1t"] = nb_single / nb_default if nb_default else 0.0
    return metrics


TRACE_UNITS = {
    **tracing.LAYER_UNITS,
    "cold_audit_s": "s",
    "trace.audit_s": "s",
    "trace.overhead_s": "s",
    "kernels.neighbor_lists.speedup_1t": "ratio",
}
END_TO_END_UNITS = {"audit_s": "s", "audit_cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def git_head() -> str | None:
    """The checkout's commit from .git, read without starting git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: workloads.Workload, seed: int, out: Path) -> dict:
    encoded_dim = None
    with contextlib.suppress(OSError, ValueError, KeyError):
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        encoded_dim = report["meta"]["encoded_dim"]
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "workload": workload.name,
        "seed": seed,
        "rows": {"synthetic": workload.generator.n_samples, "real": workload.n_real},
        "encoded_dim": encoded_dim,
        "CMLA_THREADS": os.environ.get("CMLA_THREADS"),
        "threads": kernels.thread_count(),
        "affinity": affinity,
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_head": git_head(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recipe's seed)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.default_seed() if args.seed is None else args.seed
    run_dir = WORK / workload.name
    inputs = run_dir / "inputs"
    setup_times = setup(workload, seed, inputs)
    runner = Runner(workload, seed, inputs, run_dir / "out")

    # cli.main configures INFO logging to stderr unless logging is configured;
    # the lines are still formatted, as for a user, but not kept.
    with open(os.devnull, "w", encoding="utf-8") as sink:
        logging.basicConfig(stream=sink, level=logging.INFO, force=True)
        tracer = tracing.Tracer()
        if args.trace:
            values = traced_metrics(runner, args.seconds, tracer)
            units = TRACE_UNITS
        else:
            values = untraced_metrics(runner, args.seconds, setup_times)
            units = END_TO_END_UNITS
        logging.shutdown()

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    WORK.mkdir(exist_ok=True)
    stem = f"BENCH_{workload.name}_seed{seed}_trace{args.trace}"
    results = {
        "environment": environment(workload, seed, runner.out),
        "generate_s": setup_times,
        "audits": runner.records,
        "digests": gate.digests(runner.out) if not runner.records[-1]["problems"] else None,
        "metrics": metrics,
    }
    (WORK / f"{stem}.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(WORK / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(sp)) + "\n")

    failed = runner.failed()
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} failed_frac = {failed / len(runner.records):g} "
          f"({failed} of {len(runner.records)} audits)")
    print(json.dumps({"correct": failed == 0, "attempted": len(runner.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
