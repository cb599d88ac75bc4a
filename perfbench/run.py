"""gradedlie benchmark: one workload per run, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: gl3-cohomology, e7-gauge and cli-mix (see perfbench/README.md).
Inputs come from gen.py and the seed; the program sees only spec text, job
lists and plain-data gauge blocks, written to a fresh run directory under
.perfbench_tmp/ in the checkout and removed afterwards.

With --trace 0 the run spawns the workload process SETUP_SPAWNS times to
time set-up (spawn to ready), and the last one runs the job list in rounds
for SECONDS with one closed-loop client.  With --trace 1 one process runs
with spans and counters installed (tracing.py) and the run reports the
per-layer metrics instead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_SPAWNS = 9
SETUP_TIMEOUT = 60.0
# a single round may overrun --seconds; this caps the whole timed phase
RUN_GRACE = 100.0

LAYER_TIMES = ["cohomology.closure", "cohomology.rank", "cohomology.assemble",
               "derivations.apply", "derivations.homological",
               "superconnection.gauge", "superconnection.cascade", "superconnection.extract",
               "algebroid.structure", "weight_modules.basis", "dsl.parse", "dsl.print",
               "constructions.build", "cli.self"]
LAYER_COUNTS = ["cohomology.matrix_entries", "cohomology.matrix_nnz",
                "cohomology.closure_mults", "derivations.apply_calls",
                "derivations.apply_terms_in", "derivations.apply_terms_out",
                "algebra.element_inits", "algebra.mul_calls", "algebra.add_calls",
                "superconnection.block_terms", "algebroid.structure_checks",
                "weight_modules.basis_keys", "dsl.parse_calls", "dsl.tokens",
                "cli.requests", "cli.exit_0", "cli.exit_1", "cli.exit_2", "cli.raised"]


class Worker:
    """One workload process, spawned in the run directory."""

    def __init__(self, workload: str, workdir: str, trace: bool):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), workload]
        if trace:
            argv.append("--trace")
        # fixed hashing for repeatable counts; gradedlie's bytecode is cached
        # in the checkout, as an installed package's would be
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=workdir, env=env, bufsize=0,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self._expect("READY", SETUP_TIMEOUT)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _expect(self, word: str, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        buf = b""
        while not buf.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise RuntimeError(f"workload process gave no {word} in {timeout:.0f} s")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"workload process exited before {word} "
                                   f"(code {self.proc.wait()})")
            buf += chunk
        if buf.decode().strip() != word:
            raise RuntimeError(f"workload process said {buf!r}, expected {word}")

    def run(self, seconds: int) -> None:
        self.proc.stdin.write(f"RUN {seconds}\n".encode())
        self.proc.stdin.flush()
        self._expect("DONE", seconds + RUN_GRACE)

    def close(self) -> int:
        """End the process (end of input tells it to exit), wait until it
        has ended and return its exit code."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(jobs_per_round: int) -> int:
    """The highest whole percentile with at least ten jobs of one round
    beyond it; the median when a round has too few jobs for that."""
    if jobs_per_round < 11:
        return 50
    return math.floor(100 * (1 - 10 / jobs_per_round))


def run_jobs(worker: Worker, workdir: str, seconds: int) -> dict:
    try:
        worker.run(seconds)
    finally:
        code = worker.close()
    if code:
        raise RuntimeError(f"workload process exited with code {code}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(result: dict, setups) -> dict:
    lat = result["latencies"]
    ok = sum(1 for s in result["statuses"] if s == "ok")
    q = tail_percentile(result["jobs_per_round"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(result["rounds"]), "s"),
        "job_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "job_tail_ms": (percentile(lat, q) * 1000, "ms"),
        "ok_frac": (ok / len(lat), "fraction"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result: dict) -> dict:
    """Self time and counts per layer: set-up plus the median round."""
    header = result["trace"]
    start, end, parent, name = tracing.read_spans(header)
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    marks = header["marks"]
    bounds = [t for t, _counts in marks]
    windows = len(bounds)            # window 0 is set-up, window k is round k
    self_time = [dict.fromkeys(header["names"], 0.0) for _ in range(windows)]
    spans = [0] * windows
    w = 0
    for i in range(n):
        while w < windows - 1 and start[i] >= bounds[w]:
            w += 1
        self_time[w][header["names"][name[i]]] += end[i] - start[i] - child[i]
        spans[w] += 1
    counts = [marks[0][1]] + [
        {k: v - marks[r][1].get(k, 0) for k, v in marks[r + 1][1].items()}
        for r in range(windows - 1)]

    def total(per_window):
        return per_window[0] + statistics.median(per_window[1:])

    metrics = {}
    for span in LAYER_TIMES:
        metrics[span + "_s"] = (total([t.get(span, 0.0) for t in self_time]), "s")
    for key in LAYER_COUNTS:
        metrics[key] = (total([c.get(key, 0) for c in counts]), "count")
    entries = metrics["cohomology.matrix_entries"][0]
    density = metrics["cohomology.matrix_nnz"][0] / entries if entries else 0.0
    metrics["cohomology.matrix_density"] = (density, "ratio")
    metrics["trace.wall_s"] = (statistics.median(result["rounds"]), "s")
    metrics["trace.spans"] = (total(spans), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "gradedlie")):
        print(f"error: no gradedlie sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    files, doc = gen.WORKLOADS[args.workload](args.seed)
    runs_dir = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(runs_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs_dir)
    try:
        for path, text in files.items():
            with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump(doc.pop("jobs"), fh)
        with open(os.path.join(workdir, "setup.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if args.trace:
            result = run_jobs(Worker(args.workload, workdir, True), workdir, args.seconds)
            header = result["trace"]
            header["file"] = os.path.join(workdir, header["file"])
            metrics = per_layer(result)
        else:
            setups = []
            for _ in range(SETUP_SPAWNS - 1):
                worker = Worker(args.workload, workdir, False)
                setups.append(worker.setup_s)
                if worker.close():
                    raise RuntimeError("workload process failed after set-up")
            worker = Worker(args.workload, workdir, False)
            setups.append(worker.setup_s)
            result = run_jobs(worker, workdir, args.seconds)
            metrics = end_to_end(result, setups)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(runs_dir)
        except OSError:
            pass

    statuses = result["statuses"]
    failed = sum(1 for s in statuses if s != "ok")
    print(f"{args.workload} seed {args.seed}: rounds of {result['jobs_per_round']} jobs took "
          f"{' '.join(f'{r:.3f}' for r in result['rounds'])} s; {failed} jobs failed "
          f"({statuses.count('raised')} raised, {statuses.count('wrong')} wrong)")
    print(json.dumps({
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
