"""Benchmark of the ``satsearch`` CLI: timed runs, output checks and a traced run.

    python3 perfbench/run.py --workload sweep-n18 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

Run from a source checkout; the program is imported from its ``src``
directory.  One invocation sets the instance up several times, then runs the
command as a child process, one at a time, until ``--seconds`` have passed
and at least two runs are done.  The parent takes the wall time; peak RSS
and CPU come from each child's own ``os.wait4`` rusage.  Every child's output
is checked.  With ``--trace 1`` one more child runs the same command under
``tracing.py``, and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of stdout is the result as one JSON object;
full records go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "tracing.py"

if not (SRC / "satsearch" / "cli.py").is_file():
    print(f"perfbench: no satsearch sources under {SRC}; run from a source checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from satsearch import build_unsat_table  # noqa: E402

from checks import check_outputs  # noqa: E402
from tracing import SEARCH_STEP_BYTES_PER_AMPLITUDE, read_spans, self_times  # noqa: E402
from workloads import SMOKE_N, WORKLOADS, make_instance  # noqa: E402

# An invocation must end within 180 s: no timed run starts after DEADLINE_S
# once the minimum count is reached, and a hung child is killed.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

CLI = [sys.executable, "-m", "satsearch.cli"]
PINNED_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
REMOVED_ENV = ("SATSEARCH_THREADS",)

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "generate.planted_3sat_s": "s",
    "cnf.parse_dimacs_s": "s",
    "cnf.build_unsat_table_s": "s",
    "cnf.clause_evals_per_s": "1/s",
    "cnf.build_unsat_table_peak_mb": "MiB",
    "cnf.thread_speedup": "ratio",
    "cnf.enumerations": "count",
    "spectral.spectral_summary_s": "s",
    "statevector.search_step_us": "us",
    "statevector.bytes_per_step": "B",
    "statevector.achieved_gbps": "GB/s",
    "statevector.state_snapshot_s": "s",
    "experiment.success_curve_s": "s",
    "experiment.iterate_applications": "count",
    "experiment.useful_iterate_ratio": "ratio",
    "experiment.state_after_s": "s",
    "experiment.repeat_until_success_stats_s": "s",
    "experiment.run_grover_baseline_s": "s",
    "cli.self_s": "s",
    "cli.output_mb": "MiB",
    "cli.startup_s": "s",
    "process.cpu_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}
# per-layer metrics that are total inclusive time of one function's spans
SPAN_TOTALS = {
    "cnf.parse_dimacs_s": "cnf.parse_dimacs",
    "cnf.build_unsat_table_s": "cnf.build_unsat_table",
    "spectral.spectral_summary_s": "spectral.spectral_summary",
    "statevector.state_snapshot_s": "statevector.state_snapshot",
    "experiment.success_curve_s": "experiment.success_curve",
    "experiment.state_after_s": "experiment.state_after",
    "experiment.repeat_until_success_stats_s": "experiment.repeat_until_success_stats",
    "experiment.run_grover_baseline_s": "experiment.run_grover_baseline",
}


@dataclass(frozen=True)
class Settings:
    """Repeat counts of one invocation; ``n=None`` keeps each workload's own size."""

    setups: int = 3
    min_runs: int = 2
    startups: int = 5
    n: int | None = None


SMOKE = Settings(setups=2, startups=2, n=SMOKE_N)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in REMOVED_ENV}
    env.update(PINNED_ENV)
    return env


def run_child(argv: list[str], workdir: Path, tag: str, timeout: float) -> dict:
    """Run one child to completion; wall from the parent, rusage from its own wait4."""
    with open(workdir / f"{tag}.stdout", "wb") as out, open(workdir / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=workdir)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


class Checker:
    """Checks each child's outputs and that every child wrote the same bytes."""

    def __init__(self, formula, outputs: tuple[str, ...]) -> None:
        self.formula = formula
        self.outputs = outputs
        self.reference: dict[str, str] | None = None
        self._verdicts: dict[tuple, list[str]] = {}

    def check(self, record: dict, outdir: Path, stderr: Path) -> dict[str, bytes]:
        """Record the outputs' sha256 and failures in ``record``; return the outputs."""
        data = {name: (outdir / name).read_bytes() for name in self.outputs if (outdir / name).is_file()}
        record["sha256"] = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
        record["output_bytes"] = sum(len(blob) for blob in data.values())
        if record["exit"] != 0:
            tail = stderr.read_text(errors="replace").strip()[-300:]
            record["failures"] = [f"exit code {record['exit']}: {tail}"]
        elif len(data) != len(self.outputs):
            record["failures"] = [f"missing output: {sorted(set(self.outputs) - set(data))}"]
        else:
            key = tuple(sorted(record["sha256"].items()))
            if key not in self._verdicts:
                self._verdicts[key] = check_outputs(self.formula, data)
            record["failures"] = list(self._verdicts[key])
            if self.reference is None:
                self.reference = record["sha256"]
            elif record["sha256"] != self.reference:
                record["failures"].append("output bytes differ from the first run")
        return data


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "satsearch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "child_env": PINNED_ENV,
        "child_env_removed": list(REMOVED_ENV),
    }


def span_metrics(spans: list[dict], q_max: int | None) -> dict:
    """Per-layer metrics read off the traced child's spans."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(f"{span['layer']}.{span['name']}", []).append(span)

    def seconds(group) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in group) / 1e9

    out = {}
    for metric, name in SPAN_TOTALS.items():
        group = by_name.get(name, [])
        out[metric] = _metric(seconds(group), "s", len(group))

    tables = by_name.get("cnf.build_unsat_table", [])
    evals = sum(s["m"] * (1 << s["n"]) for s in tables)
    out["cnf.clause_evals_per_s"] = _metric(evals / seconds(tables) if tables else 0.0, "1/s", len(tables))
    peak = max((s["peak_bytes"] for s in tables), default=0)
    out["cnf.build_unsat_table_peak_mb"] = _metric(peak / 2**20, "MiB", len(tables))
    out["cnf.enumerations"] = _metric(len(tables), "count", 1)

    steps = by_name.get("statevector.search_step", [])
    step_bytes = sum(SEARCH_STEP_BYTES_PER_AMPLITUDE * s["amplitudes"] for s in steps)
    if steps:
        out["statevector.search_step_us"] = _metric(seconds(steps) / len(steps) * 1e6, "us", len(steps))
        out["statevector.bytes_per_step"] = _metric(step_bytes / len(steps), "B", len(steps))
        out["statevector.achieved_gbps"] = _metric(step_bytes / seconds(steps) / 1e9, "GB/s", len(steps))
    out["experiment.iterate_applications"] = _metric(len(steps), "count", 1)
    if steps and q_max:
        out["experiment.useful_iterate_ratio"] = _metric(q_max / len(steps), "ratio", 1)

    selfs = self_times(spans)
    cli_spans = [s for s in spans if s["layer"] == "cli"]
    out["cli.self_s"] = _metric(sum(selfs[s["id"]] for s in cli_spans), "s", len(cli_spans))
    (main,) = by_name["cli.main"]
    covered = seconds(s for s in spans if s["parent"] == main["id"])
    out["trace.coverage"] = _metric(covered / seconds([main]), "ratio", 1)
    return out


def traced_metrics(child, formula, spans_path: Path, timed: list[dict], generate_times, settings, workdir):
    """Run the traced child and the extra timings; returns its record and the per-layer metrics."""
    spans_path.unlink(missing_ok=True)
    traced, data = child("traced", [sys.executable, str(TRACER), "--spans", str(spans_path), "--"])
    startups = [
        run_child([sys.executable, "-c", "import satsearch.cli"], workdir, f"startup{k}", 60.0)
        for k in range(settings.startups)
    ]
    if any(s["exit"] != 0 for s in startups):
        traced["failures"].append("a child importing satsearch.cli failed")
    thread_times = []
    for threads in (1, len(os.sched_getaffinity(0))):
        start = time.perf_counter()
        build_unsat_table(formula, threads=threads)
        thread_times.append(time.perf_counter() - start)

    layers = {name: _metric(0.0, unit, 0) for name, unit in PER_LAYER.items()}
    layers["generate.planted_3sat_s"] = _metric(_median(generate_times), "s", len(generate_times))
    layers["cnf.thread_speedup"] = _metric(thread_times[0] / thread_times[1], "ratio", 1)
    layers["cli.output_mb"] = _metric(traced["output_bytes"] / 2**20, "MiB", 1)
    layers["cli.startup_s"] = _metric(_median([s["wall_s"] for s in startups]), "s", len(startups))
    layers["process.cpu_s"] = _metric(_median([r["cpu_s"] for r in timed]), "s", len(timed))
    base = _median([r["wall_s"] for r in timed])
    layers["trace.overhead_frac"] = _metric((traced["wall_s"] - base) / base, "ratio", len(timed))

    spans = read_spans(spans_path) if spans_path.is_file() else []
    if any(s["layer"] == "cli" and s["name"] == "main" for s in spans):
        report = json.loads(data["report.json"]) if "report.json" in data and not traced["failures"] else None
        layers.update(span_metrics(spans, len(report["curve"]) - 1 if report else None))
    else:
        traced["failures"].append("traced run recorded no cli.main span")
    return traced, layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, settings: Settings, out_root: Path) -> dict:
    started = time.perf_counter()
    workload = WORKLOADS[name]
    n = settings.n or workload.n
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    try:
        instance = workdir / "instance.cnf"
        setups = [make_instance(n, seed, instance) for _ in range(settings.setups)]
        formula = setups[-1][0]
        checker = Checker(formula, workload.outputs)

        def child(tag: str, prefix: list[str]) -> tuple[dict, dict[str, bytes]]:
            outdir = workdir / tag
            outdir.mkdir()
            timeout = CHILD_TIMEOUT_S - (time.perf_counter() - started)
            record = run_child(prefix + workload.argv(instance, outdir), workdir, tag, timeout)
            data = checker.check(record, outdir, workdir / f"{tag}.stderr")
            shutil.rmtree(outdir)
            return record, data

        runs: list[dict] = []
        measure_start = time.perf_counter()
        while len(runs) < settings.min_runs or time.perf_counter() - measure_start < seconds:
            if runs and time.perf_counter() - started + runs[-1]["wall_s"] > DEADLINE_S:
                break
            runs.append(child(f"run{len(runs)}", CLI)[0])
        metrics = {
            "wall_s": _metric(_median([r["wall_s"] for r in runs]), "s", len(runs)),
            "peak_rss_mb": _metric(_median([r["peak_rss_mb"] for r in runs]), "MiB", len(runs)),
            "setup_s": _metric(_median([total for _, _, total in setups]), "s", len(setups)),
            "ok_frac": _metric(sum(not r["failures"] for r in runs) / len(runs), "ratio", len(runs)),
        }
        if trace:
            spans_path = out_root / f"{name}-seed{seed}.spans.jsonl"
            generate_times = [generate for _, generate, _ in setups]
            traced, layers = traced_metrics(child, formula, spans_path, runs, generate_times, settings, workdir)
            runs.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in runs if r["failures"])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "settings": asdict(settings),
        "n": n,
        "m": formula.m,
        "environment": environment(),
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "metrics": layers if trace else metrics,
        "end_to_end": metrics,
        "runs": runs,
    }


def print_result(result: dict) -> None:
    env = result["environment"]
    print(
        f"{result['workload']} seed={result['seed']} n={result['n']} m={result['m']} "
        f"trace={int(result['trace'])} commit={env['commit']} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} cpu={env['cpu_model']!r}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']:6s} n={metric['samples']}")
    print(f"  {'failed_frac':42s} {result['failed_frac']:>16.6g} {'ratio':6s} n={result['attempted']}")
    for k, run in enumerate(result["runs"]):
        for failure in run["failures"]:
            print(f"  run {k} FAILED: {failure}")


def summary_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()
            },
        }
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"every workload at n={SMOKE_N}, timed and traced")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.smoke:
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
        settings, seconds = SMOKE, min(args.seconds, 1.0)
    else:
        plan = [(args.workload, bool(args.trace))]
        settings, seconds = Settings(), args.seconds
    results = []
    for name, trace in plan:
        result = run_workload(name, args.seed, seconds, trace, settings, OUT)
        tag = "smoke-" if args.smoke else ""
        (OUT / f"{tag}{name}-seed{args.seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=2) + "\n")
        print_result(result)
        results.append(result)
    if args.smoke:
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    else:
        print(summary_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
