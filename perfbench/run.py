"""The repository benchmark: two workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload replay-medium-hot --seed 42 \\
        --seconds 24 --trace 0

``--workload all`` runs the workloads one after another.  Each
workload prints a table of its metrics with units, then the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` makes a separate traced run and
reports the per-layer metrics.  See ``perfbench/NOTES.md``.

Every measured pass runs in a ``python -m perfbench.session`` process
with the caller's ``REPRO_BENCH_*`` variables removed and fresh temporary
caches under ``.perfbench-work/`` (deleted on exit), so the work is fixed
by the arguments alone.  A run makes several short passes and reports
their medians.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.tracing import LAYERS, PHASES  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DEFAULT_SEED = 42

#: Worker processes of each workload's untraced (end-to-end) pass.
E2E_JOBS = {"replay-medium-hot": 1, "fig8-sweep-full": 2}

#: Sessions per run (the sweep makes more while --seconds allows);
#: setup_s is the median of their set-ups.
MIN_SESSIONS = 3

#: A run must end within 180 s; stop starting sessions past this budget.
DEADLINE_S = 170.0

UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
UNITS.update({"req_p50_s": "s", "req_p95_s": "s", "failed_frac": "ratio"})


class SessionError(RuntimeError):
    """A benchmark session crashed, timed out or printed no result."""


class Sessions:
    """Launches sessions against one deadline and one work directory."""

    def __init__(self, workdir: Path, smoke: bool, reference: bool,
                 deadline: Optional[float]):
        self.workdir = workdir
        self.smoke = smoke
        #: Compare digests with digests.json (default seed, full size).
        self.reference = reference and not smoke
        self.deadline = (time.monotonic() + deadline
                         if deadline is not None else None)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_BENCH_")}
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self._ids = itertools.count()

    def remaining(self) -> float:
        if self.deadline is None:
            return float("inf")
        return self.deadline - time.monotonic()

    def launch(self, workload: str, seed: int,
               pass_: Dict) -> Tuple[subprocess.Popen, Path]:
        """Start one session: set up, then run ``pass_``.

        The session writes its result to the returned path.
        """
        if self.remaining() <= 0:
            raise SessionError("out of time before starting a session")
        out = self.workdir / f"session-{next(self._ids)}.json"
        spec = {"workload": workload, "seed": seed, "smoke": self.smoke,
                "workdir": str(self.workdir), "pass": pass_,
                "out": str(out), "launch": time.monotonic()}
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.session", json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            start_new_session=True)
        return proc, out

    def wait(self, launched: List[Tuple[subprocess.Popen, Path]]) -> List[Dict]:
        """Wait for sessions started together; kill them all on failure."""
        try:
            for proc, _ in launched:
                proc.wait(timeout=None if self.deadline is None
                          else max(0.0, self.remaining()))
        except BaseException as exc:
            for proc, _ in launched:
                if proc.poll() is None:
                    # The session's process group includes its pool workers.
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SessionError("a session ran past the deadline") from None
            raise
        results = []
        for proc, out in launched:
            if proc.returncode != 0 or not out.is_file():
                raise SessionError(f"a session exited with {proc.returncode}")
            results.append(json.loads(out.read_text(encoding="utf-8")))
        return results

    def session(self, workload: str, seed: int, pass_: Dict) -> Dict:
        """Run one session to completion; return its result."""
        return self.wait([self.launch(workload, seed, pass_)])[0]


def _pass(reverse: bool, jobs: int, trace: bool,
          budget_s: float = 0.0) -> Dict:
    """A pass spec; the hot replay repeats it while ``budget_s`` allows."""
    return {"reverse": reverse, "jobs": jobs, "trace": trace,
            "budget_s": budget_s}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _check(sessions: Sessions, workload: str, seed: int,
           passes: List[Dict]) -> Dict:
    """Correctness over every pass: rules, reference digests, agreement."""
    reference = (checks.load_reference(workload, seed)
                 if sessions.reference else None)
    attempted = failed = 0
    for p in passes:
        attempted += len(p["records"])
        failed += len(checks.failures(p["records"], reference))
    # The same requests run in every pass: any digest disagreement
    # (reverse order, tracing) fails those requests once more.
    leaked = checks.disagreements([p["records"] for p in passes])
    failed += len(leaked)
    return {"attempted": attempted, "failed": failed,
            "digests": [r["digest"] for r in passes[0]["records"]]}


def measure(sessions: Sessions, workload: str, seed: int,
            seconds: float) -> Dict:
    """The untraced run: end-to-end metrics, medians over short passes.

    The replay makes ``MIN_SESSIONS`` sessions, each replaying rounds for
    its share of ``seconds``.  The sweep makes one cold pass a session and
    starts sessions while their passes fit in ``seconds`` (at least
    ``MIN_SESSIONS``).
    """
    jobs = E2E_JOBS[workload]
    hot = workload == "replay-medium-hot"
    setups: List[float] = []
    passes: List[Dict] = []
    measured = 0.0
    while len(setups) < MIN_SESSIONS or (
            not hot and measured + measured / len(passes) <= seconds):
        # Start another session only if it fits in the deadline.
        if setups and 1.5 * (measured + sum(setups)) / len(setups) > \
                sessions.remaining():
            break
        session = sessions.session(
            workload, seed, _pass(False, jobs, False, seconds / MIN_SESSIONS))
        setups.append(session["setup_s"])
        passes += session["passes"]
        measured += sum(p["wall_s"] for p in session["passes"])
    if hot:
        # Every round replays the same requests in the same order: the
        # sum of per-request medians is one round's time with a slow
        # moment in any single round filtered out.
        wall = sum(map(_median, zip(*(p["latencies"] for p in passes))))
        cpu = sum(map(_median, zip(*(p["request_cpu"] for p in passes))))
    else:
        wall = _median([p["wall_s"] for p in passes])
        cpu = _median([p["cpu_s"] for p in passes])
    latencies = sorted(x for p in passes for x in p["latencies"])
    n_requests = len(passes[0]["records"])
    verdict = _check(sessions, workload, seed, passes)
    metrics = {
        "wall_s": wall,
        "sim_inst_per_s": passes[0]["sim"]["sim.instructions"] / wall,
        "requests_per_s": n_requests / wall,
        "setup_s": _median(setups),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        "cpu_s": cpu,
    }
    # Per-request latency is printed, not gated: its median sits on one
    # request type, and on the sweep it follows which core each worker
    # ran on (see NOTES.md).
    extra = {"req_p50_s": _median([_median(p["latencies"]) for p in passes]),
             "failed_frac": verdict["failed"] / verdict["attempted"]}
    if len(passes[0]["latencies"]) >= 200:
        extra["req_p95_s"] = statistics.quantiles(latencies, n=20)[-1]
    notes = (f"{len(setups)} session(s), {len(passes)} measured pass(es) "
             f"of {n_requests} requests, {len(latencies)} request "
             f"latencies, jobs={jobs}")
    return {"metrics": metrics, "extra": extra, "verdict": verdict,
            "notes": notes}


def measure_traced(sessions: Sessions, workload: str, seed: int) -> Dict:
    """The traced run: per-layer metrics and tracing overhead.

    Passes over the same requests: untraced at the end-to-end job count
    (counts, frontier waiting, model counts); untraced in reverse order at
    one job (the overhead baseline and a cross-request leak check; for a
    serial workload it is also the end-to-end pass); traced forward at one
    job (phases and self time).  All must produce identical digests.
    """
    jobs = E2E_JOBS[workload]
    passes = []
    if jobs != 1:
        passes.append(sessions.session(
            workload, seed, _pass(False, jobs, False))["passes"][0])
    # The two serial passes run side by side, one per core, each in its
    # own session (cold workloads need a fresh process per pass).
    passes += [s["passes"][0] for s in sessions.wait([
        sessions.launch(workload, seed, _pass(True, 1, False)),
        sessions.launch(workload, seed, _pass(False, 1, True))])]
    u, r, t = passes[0], passes[-2], passes[-1]
    counts_from = t if workload == "replay-medium-hot" else u
    phase_sum = sum(t["phases"].values())
    metrics = {f"self_s.{layer}": t["layers"][layer] for layer in LAYERS}
    metrics.update({f"phase.{p}_s": t["phases"][p] for p in PHASES})
    metrics["phase.coverage"] = phase_sum / t["wall_s"]
    metrics["trace.wall_s"] = t["wall_s"]
    metrics["trace.overhead_s"] = t["wall_s"] - r["wall_s"]
    metrics.update(u["frontier"])
    metrics.update(counts_from["counts"])
    metrics.update(u["sim"])
    verdict = _check(sessions, workload, seed, passes)
    notes = (f"traced wall {t['wall_s']:.3f} s vs untraced serial "
             f"{r['wall_s']:.3f} s; phases cover "
             f"{100 * metrics['phase.coverage']:.1f}% of the traced wall")
    return {"metrics": metrics,
            "extra": {"failed_frac": verdict["failed"] / verdict["attempted"]},
            "verdict": verdict, "notes": notes}


def _print_table(workload: str, seed: int, report: Dict) -> None:
    print(f"{workload} (seed {seed}): {report['notes']}")
    rows = dict(report["metrics"])
    rows.update(report["extra"])
    for name, value in rows.items():
        print(f"  {name:<28} {value:>16.6g} {UNITS.get(name, '')}")
    verdict = report["verdict"]
    print(f"  requests checked {verdict['attempted']}, failed "
          f"{verdict['failed']}")


def _result_line(reports: Dict[str, Dict]) -> Dict:
    attempted = sum(r["verdict"]["attempted"] for r in reports.values())
    failed = sum(r["verdict"]["failed"] for r in reports.values())
    metrics = {}
    for workload, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{workload}/"
        for name, value in report["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs for the self-tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for this seed (after a "
                             "deliberate change to simulated results)")
    args = parser.parse_args(argv)
    # A terminated run still stops its sessions (see Sessions.wait).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    # The 180 s limit applies to one workload; "all" runs them all.
    sessions = Sessions(workdir, args.smoke, not args.record_digests,
                        DEADLINE_S if args.workload != "all" else None)
    reports = {}
    try:
        for workload in workloads:
            if args.trace:
                report = measure_traced(sessions, workload, args.seed)
            else:
                report = measure(sessions, workload, args.seed, args.seconds)
            _print_table(workload, args.seed, report)
            reports[workload] = report
    except SessionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    if args.record_digests:
        path = checks.write_reference(args.seed, {
            w: r["verdict"]["digests"] for w, r in reports.items()})
        print(f"recorded digests in {path}")
    print(json.dumps(_result_line(reports)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
