"""The liecap benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through the public CLI entry point ``liecap.cli.main``
and checks every answer against values derived here, independently of
liecap.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a report with the environment, the
sample counts and the failed ratio.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import Family, exterior_square_dim, multiplier_dim, write_algebra  # noqa: E402
from tracer import merge, summarize  # noqa: E402

SETUP_REPEATS = 9
VERIFY_PAPER_CHECKS = 85
# Host speed: the probe runs PROBES_PER_GAP times before each set-up and
# each request and after the last, outside the timed intervals.  Times are
# reported scaled to a host on which the probe takes PROBE_REF_S, using
# the probes taken around them (see bench/README.md).
PROBES_PER_GAP = 3
PROBE_REF_S = 0.006
# Error counts of layers that raise on no workload: always 0, so they are
# printed in the report line but are not declared per-layer metrics.
REPORT_ONLY = ("capability.errors", "cli.errors", "exterior.errors", "lie.errors", "linalg.errors")


class BenchError(Exception):
    """The benchmark cannot run here; exits nonzero without a result."""


@dataclass(frozen=True)
class Workload:
    """``cycle`` is walked in order, each family in a fresh random basis;
    ``request_s`` is the typical seconds per request on the reference
    machine (bench/README.md), which sets the request count so that a run
    lasts about ``--seconds`` with a count that does not depend on timing."""

    why: str
    request_s: float
    method: str | None = None
    cycle: tuple[Family, ...] = ()


# Each workload keeps its requests at one cost, so that the median and the
# maximum are taken over comparable requests.  The H(a)+H(b)+A(k) members
# of oracle-scrambled have dim [L, L] = 2: outside the classified
# families, their verdict comes from the construction alone, and a
# shortcut that skipped the construction would fail them.  At n = 12
# they cost about what the n = 13 members do.
WORKLOADS = {
    "oracle-scrambled": Workload(
        why="default analyze on scrambled algebras, n = 12-13: time is exterior_square elimination",
        request_s=2.3,
        method="both",
        cycle=(
            Family((1,), 10), Family((2,), 8), Family((1, 1), 6), Family((3,), 6),
            Family((4,), 4), Family((2, 1), 4), Family((5,), 2), Family((6,), 0),
        ),
    ),
    "formula-scrambled": Workload(
        why="analyze --method formula on H(m)+A(k), n = 18: never builds L ^ L; time is Fraction work in lie and decompose",
        request_s=2.0,
        method="formula",
        cycle=(
            Family((1,), 15), Family((2,), 13), Family((3,), 11), Family((4,), 9),
            Family((5,), 7), Family((6,), 5), Family((7,), 3), Family((8,), 1),
        ),
    ),
    "verify-paper": Workload(
        why="verify-paper in a fresh interpreter per request: many tiny canonical builds, mostly cache hits",
        request_s=0.6,
    ),
}


# ---------------------------------------------------------------------------
# requests and their expected answers


@dataclass
class Request:
    """One CLI invocation.  ``family`` is None for ``verify-paper``; an
    ``analyze`` request without ``expected`` (its reference failed) fails."""

    argv: list[str]
    family: Family | None = None
    expected: dict | None = None


def expected_report(family: Family, method: str, reference: dict | None) -> dict:
    """The checked part of ``analyze --json``.  For one Heisenberg summand
    everything follows from (m, k); with more, the multiplier still
    follows from the direct-sum formula, while the capability verdict and
    exterior center come from liecap on the unscrambled algebra."""
    n, derived, k = family.dim, len(family.heis), family.abelian
    dim_m, dim_ext = multiplier_dim(family), exterior_square_dim(family)
    oracle = method in ("oracle", "both")
    formula = method in ("formula", "both")
    classified = derived == 1
    if classified:
        m = family.heis[0]
        capable, center_dim = m == 1, (0 if m == 1 else 1)
    else:
        capable, center_dim = reference["capability"]["capable"], reference["exterior_center_dim"]
    return {
        "dims": {
            "dim": n,
            "derived": derived,
            "center": derived + k,
            "lower_central_series": [n, derived, 0],
            "nilpotent": True,
        },
        "decomposition": {"m": family.heis[0], "k": k} if classified else None,
        "multiplier_dim": {
            "formula": dim_m if formula and classified else None,
            "oracle": dim_m if oracle else None,
        },
        "exterior_square_dim": {
            "formula": dim_ext if formula and classified else None,
            "oracle": dim_ext if oracle else None,
        },
        "exterior_center_dim": center_dim if oracle else None,
        "capable": capable,
        "family": "heisenberg-sum" if classified else "unclassified",
    }


def checked_part(report: dict) -> dict:
    keys = ("dims", "decomposition", "multiplier_dim", "exterior_square_dim", "exterior_center_dim")
    out = {key: report.get(key) for key in keys}
    out["capable"] = report["capability"]["capable"]
    out["family"] = report["capability"]["family"]
    return out


def answer_ok(request: Request, reply: dict | None) -> bool:
    """A request fails on a nonzero exit, a traceback, or a wrong answer."""
    if reply is None or reply["exit"] != 0 or reply["error"] or "Traceback" in reply["stderr"]:
        return False
    try:
        doc = json.loads(reply["stdout"])
        if request.family is None:
            return doc["all_pass"] is True and len(doc["checks"]) == VERIFY_PAPER_CHECKS
        return request.expected is not None and checked_part(doc) == request.expected
    except (ValueError, KeyError, TypeError):
        return False


def write_inputs(name: str, seed: int, count: int, work: Path) -> list[tuple[Family, Path]]:
    """The ``count`` algebra files of a run, each family of the cycle in
    turn, every one in its own random basis drawn from the seed."""
    cycle = WORKLOADS[name].cycle
    rng = random.Random(f"{name}:{seed}")
    files = []
    for idx in range(count):
        family = cycle[idx % len(cycle)]
        path = work / f"{idx:03d}.json"
        write_algebra(path, family, rng)
        files.append((family, path))
    return files


def make_requests(name: str, seed: int, count: int, work: Path, worker: "Worker") -> list[Request]:
    method = WORKLOADS[name].method
    if method is None:
        return [Request(["verify-paper", "--json"]) for _ in range(count)]
    references: dict[Family, dict | None] = {}
    requests = []
    for family, path in write_inputs(name, seed, count, work):
        if len(family.heis) > 1 and family not in references:
            references[family] = reference_report(worker, family, method)
        argv = ["analyze", str(path.relative_to(ROOT)), "--json", "--method", method]
        if len(family.heis) > 1 and references[family] is None:
            expected = None  # no reference answer: the request counts as failed
        else:
            expected = expected_report(family, method, references.get(family))
        requests.append(Request(argv, family, expected))
    return requests


def reference_report(worker: "Worker", family: Family, method: str) -> dict | None:
    """liecap's report on the unscrambled algebra, or None if it fails."""
    reply = worker.request(-1, ["analyze", family.name, "--json", "--method", method])
    if reply is None or reply["exit"] != 0:
        return None
    try:
        return json.loads(reply["stdout"])
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# the process that serves requests


class Worker:
    """A ``serve.py`` interpreter with liecap imported."""

    def __init__(self, spans_file: Path | None = None):
        cmd = [sys.executable, str(BENCH / "serve.py"), str(ROOT / "src")]
        if spans_file is not None:
            cmd.append(str(spans_file))
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise BenchError("request server did not start (is liecap under src/?)")
        ready = json.loads(line)
        if Path(ready["liecap"]).resolve().parent != (ROOT / "src" / "liecap").resolve():
            self.kill()
            raise BenchError(f"imported liecap from {ready['liecap']}, not from this checkout")

    def request(self, rid: int, argv: list[str]) -> dict | None:
        """One request and its reply; None if the server died."""
        try:
            self.proc.stdin.write(json.dumps({"id": rid, "argv": argv}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def close(self) -> int:
        """End the server; returns its peak resident memory in KiB."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.wait(timeout=60)
        return json.loads(line)["peak_rss_kb"] if line else 0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class Pass:
    latencies: list[float]
    ok: list[bool]
    outputs: list[str | None]
    peak_rss_kb: int
    probes: list[float]


def run_pass(requests: list[Request], fresh: bool, worker: Worker | None, spans_dir: Path | None) -> Pass:
    """Send every request and time it from the benchmark's side.  With
    ``fresh`` each request gets its own interpreter, started inside the
    timed interval; otherwise ``worker`` serves them all and is closed at
    the end.  A server that dies fails its request and is replaced."""
    latencies, ok, outputs, peak = [], [], [], 0
    probes = []
    try:
        for rid, request in enumerate(requests):
            probes += probe_gap()
            start = time.perf_counter()
            if fresh:
                worker = Worker(spans_dir / f"{rid:04d}.json" if spans_dir is not None else None)
            reply = worker.request(rid, request.argv)
            latencies.append(time.perf_counter() - start)
            if fresh:
                peak = max(peak, worker.close())
            elif reply is None:
                worker.kill()
                worker = Worker(spans_dir / f"served-{rid:04d}.json" if spans_dir is not None else None)
            ok.append(answer_ok(request, reply))
            outputs.append(None if reply is None else reply["stdout"])
        if not fresh:
            peak = max(peak, worker.close())
    except BaseException:
        if worker is not None:
            worker.kill()
        raise
    probes += probe_gap()
    return Pass(latencies, ok, outputs, peak, probes)


def set_up(name: str, seed: int, count: int, work: Path) -> tuple[Worker | None, list[Request], list[float], list[float]]:
    """Start a server and make the run's inputs and requests, SETUP_REPEATS
    times over; returns the last server (None for a fresh-interpreter
    workload), the requests, the set-up times and the probes around them."""
    worker, times, probes = None, [], []
    try:
        for _ in range(SETUP_REPEATS):
            if worker is not None:
                worker.close()
                worker = None
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            probes += probe_gap()
            start = time.perf_counter()
            worker = Worker()
            requests = make_requests(name, seed, count, work, worker)
            times.append(time.perf_counter() - start)
        probes += probe_gap()
        if WORKLOADS[name].method is None:
            worker.close()
            worker = None
    except BaseException:
        if worker is not None:
            worker.kill()
        raise
    return worker, requests, times, probes


def probe_gap() -> list[float]:
    return [probe() for _ in range(PROBES_PER_GAP)]


def probe() -> float:
    """Seconds for a fixed piece of Fraction and big-integer work that does
    not touch liecap: a reading of how fast the host runs Python now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 89 + 1, i % 97 + 1)
    x = 3**300
    for i in range(300):
        x = (x * 12345 + i) % 7**400
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# environment and statistics


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples above it.  Below 20 samples that percentile would sit under
    the median, so the maximum is reported as the 100th."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one run


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    fresh = workload.method is None
    count = max(1, round(seconds / workload.request_s))
    work = BENCH / f".work-{name}-{seed}-{os.getpid()}"
    worker = None
    try:
        worker, requests, setup_times, setup_probes = set_up(name, seed, count, work)
        timed = run_pass(requests, fresh, worker, None)
        worker = None
        passes = [timed]
        wall = sum(timed.latencies)
        if trace:
            spans_dir = work / "spans"
            spans_dir.mkdir()
            worker = None if fresh else Worker(spans_dir / "served.json")
            traced = run_pass(requests, fresh, worker, spans_dir)
            worker = None
            passes.append(traced)
            docs = [json.loads(p.read_text()) for p in sorted(spans_dir.glob("*.json"))]
            layers = summarize(merge(docs))
            # each pass scaled by its own probes, so host drift between them cancels
            layers["trace.overhead_ratio"] = (sum(traced.latencies) / statistics.mean(traced.probes)) / (
                wall / statistics.mean(timed.probes)
            )
            if traced.outputs != timed.outputs:
                traced.ok = [False] * len(traced.ok)
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not x for p in passes for x in p.ok)
    tail, tail_pct = tail_latency(timed.latencies)
    measured = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "requests_per_s": sum(timed.ok) / wall,
        "latency_p50_s": statistics.median(timed.latencies),
        "latency_tail_s": tail,
    }
    setup_speed = PROBE_REF_S / statistics.mean(setup_probes)
    timed_speed = PROBE_REF_S / statistics.mean(timed.probes)
    end_to_end = {
        "setup_s": metric(measured["setup_s"] * setup_speed, "s"),
        "wall_s": metric(measured["wall_s"] * timed_speed, "s"),
        "requests_per_s": metric(measured["requests_per_s"] / timed_speed, "1/s"),
        "latency_p50_s": metric(measured["latency_p50_s"] * timed_speed, "s"),
        "latency_tail_s": metric(measured["latency_tail_s"] * timed_speed, "s"),
        "peak_rss_mb": metric(timed.peak_rss_kb / 1024, "MB"),
    }
    report = {
        "workload": name,
        "why": workload.why,
        "environment": environment(seed),
        "requests": len(requests),
        "families": sorted({r.family.name for r in requests if r.family is not None}),
        "latency_samples": len(timed.latencies),
        "latencies_s": timed.latencies,
        "latency_tail_percentile": tail_pct,
        "failed_ratio": metric(failed / attempted, "ratio"),
        "probe_mean_s": {"setup": statistics.mean(setup_probes), "timed": statistics.mean(timed.probes)},
        "measured": measured,
        "end_to_end": end_to_end,
    }
    if trace:
        units = {"_s": "s", "_ratio": "ratio", "_bits": "bits"}
        metrics = {
            key: metric(value, next((u for suffix, u in units.items() if key.endswith(suffix)), "count"))
            for key, value in sorted(layers.items())
        }
        report["per_layer"] = metrics
        metrics = {key: value for key, value in metrics.items() if key not in REPORT_ONLY}
    else:
        metrics = end_to_end
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="liecap benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liecap" / "__init__.py").is_file():
        print(f"error: no liecap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
