"""One workload process: program set-up, then timed rounds over a job list.

Run by run.py as `python3 worker.py WORKLOAD [--trace]` with the run
directory as the working directory.  The worker imports gradedlie from the
checkout's src/, does the workload's one-off set-up, prints READY and waits
for RUN SECONDS on stdin; end of input makes it exit.  On RUN it repeats the
job list in rounds while another round fits in SECONDS (always at least
one), writes result.json and prints DONE.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import gradedlie  # noqa: E402
from gradedlie import cli, dsl, superconnection  # noqa: E402

if not os.path.abspath(gradedlie.__file__).startswith(SRC + os.sep):
    sys.exit(f"gradedlie imported from {gradedlie.__file__}, not from {SRC}")


def load_spec(path: str):
    with open(path, encoding="utf-8") as fh:
        return dsl.to_algebroid_spec(dsl.parse(fh.read()))


# -- answers ----------------------------------------------------------------------

_DIM = re.compile(r"W\^\((\d+),(\d+)\) dim (\d+)")


def _answer_of(argv, out: str):
    """What the request answered, in the shape of the job's reference."""
    if "--format" in argv:
        payload = json.loads(out)
        cmd = argv[0]
        if cmd == "check":
            return {"status": payload["status"]}
        if cmd == "cohomology":
            return {"betti": payload["betti"], "truncated": payload["truncated"]}
        if cmd == "decompose":
            return {"dims": payload["dims"]}
        if cmd == "rep":
            return {"cascade": payload["status"] == "ok"}
        return {"wrote": payload["path"]}
    lines = out.splitlines()
    cmd = argv[0]
    if cmd == "check":
        return {"status": "ok" if lines[0].endswith(": PASS") else "fail"}
    if cmd == "cohomology":
        betti = json.loads(lines[1].split("betti", 1)[1])
        return {"betti": betti, "truncated": "(truncated" in lines[0]}
    if cmd == "decompose":
        return {"dims": {f"({i},{j})": int(n) for i, j, n in _DIM.findall(out)}}
    if cmd == "rep":
        return {"cascade": lines[0].endswith("cascade PASS")}
    return {"wrote": lines[0][len("wrote "):]}


def run_cli(job) -> tuple:
    """(seconds, status) with status ok, wrong or raised."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(job["argv"])
    except Exception:
        return time.perf_counter() - t0, "raised"
    dt = time.perf_counter() - t0
    if code not in job["exit"]:
        return dt, "wrong"
    ref = job["answer"]
    if ref is None or code == 2:
        return dt, "ok"
    try:
        got = _answer_of(job["argv"], out.getvalue())
    except (ValueError, KeyError, IndexError):
        return dt, "wrong"
    return dt, "ok" if got == ref else "wrong"


class GaugeRunner:
    """e7 at module weight 2: set-up extracts the components once."""

    def __init__(self, doc):
        self.spec = load_spec(doc["specs"][0])
        self.comp = superconnection.extract_components(self.spec, doc["weight"])
        if len(self.comp.basis_keys) != doc["basis_size"]:
            sys.exit(f"e7 weight-{doc['weight']} basis has {len(self.comp.basis_keys)} "
                     f"keys, expected {doc['basis_size']}")

    def _element(self, coeff, factors):
        table = self.spec.table
        out = table.scalar(coeff)
        for name, index, exp in factors:
            out = out * table.gen(name, index) ** exp
        return out

    def __call__(self, job) -> tuple:
        t0 = time.perf_counter()
        try:
            blocks = {}
            for p, entries in job["blocks"].items():
                blk = {}
                for key, terms in entries:
                    (mono,) = self._element(1, key).terms
                    value = self.spec.table.zero()
                    for num, den, factors in terms:
                        value = value + self._element(Fraction(num, den), factors)
                    blk[mono] = value
                blocks[int(p)] = blk
            phi = superconnection.GaugeTransformation(self.spec, self.comp.i, blocks)
            gauged = superconnection.apply_gauge(self.comp, phi)
            flat = superconnection.flatness_cascade(gauged).passed
            d0_kept = all(gauged.component(0, k) == self.comp.component(0, k)
                          for k in self.comp.basis_keys)
        except Exception:
            return time.perf_counter() - t0, "raised"
        return time.perf_counter() - t0, "ok" if flat and d0_kept else "wrong"


def setup(workload: str, doc):
    """The workload's one-off program set-up; returns the job runner."""
    if workload == "e7-gauge":
        return GaugeRunner(doc)
    for path in doc["specs"]:
        load_spec(path)
    return run_cli


def main() -> None:
    workload = sys.argv[1]
    tracer = None
    if "--trace" in sys.argv[2:]:
        sys.dont_write_bytecode = True
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    with open("setup.json", encoding="utf-8") as fh:
        runner = setup(workload, json.load(fh))
    print("READY", flush=True)
    command = sys.stdin.readline().split()
    if command[:1] != ["RUN"]:
        return
    seconds = float(command[1])
    with open("jobs.json", encoding="utf-8") as fh:
        jobs = json.load(fh)
    latencies, statuses, rounds = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer:
            tracer.mark()
        t0 = time.perf_counter()
        for job in jobs:
            dt, status = runner(job)
            latencies.append(dt)
            statuses.append(status)
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + rounds[-1] > seconds:
            break
    if tracer:
        tracer.mark()
    result = {"rounds": rounds, "latencies": latencies, "statuses": statuses,
              "jobs_per_round": len(jobs),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        result["trace"] = tracer.dump("spans.bin")
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print("DONE", flush=True)


if __name__ == "__main__":
    main()
