"""Closed-loop benchmark of anyonwalk: one client, one operation at a time.

    python3 perfbench/run.py --workload {sweep,deep,pathsum,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run draws passes of operations from ``--seed``,
as many as fill ``--seconds`` at the nominal pass time of the workload,
times each pass and each operation, and checks every output after its pass
in a separate checker process.  The last line of standard output is the result:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, per-layer metrics
from traced passes that alternate with untraced ones.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is first imported
BLAS_PIN = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WORKLOADS = ("sweep", "deep", "pathsum", "exact")


def _load_package():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "anyonwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no anyonwalk sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import anyonwalk

    if Path(anyonwalk.__file__).resolve().parent != SRC / "anyonwalk":
        raise SystemExit(f"error: imported anyonwalk from {anyonwalk.__file__}, not {SRC}")


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "anyonwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_pin": BLAS_PIN,
        "mode": "fresh process per run; closed loop, 1 client, 1 thread",
    }


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh process until its first pass is ready."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


@contextlib.contextmanager
def _checker():
    """A child process that checks outputs, one JSON line each way, so the
    checks' memory and caches stay out of the measured process."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", "exact", "--seed", "0",
           "--seconds", "0", "--trace", "0", "--checker"]
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        # wait until the child has loaded, so it never competes with a timed pass
        if proc.stdout.readline().strip() != "ready":
            raise SystemExit(f"error: checker process failed to start ({proc.wait()})")

        def check(op, output) -> str | None:
            item = {"kind": op.kind, "params": op.params, "output": output}
            proc.stdin.write(json.dumps(item) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise SystemExit(f"error: checker process exited ({proc.poll()})")
            return json.loads(line)

        try:
            yield check
        finally:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _serve_checks() -> None:
    from workloads import Checker, Op

    checker = Checker()
    print("ready", flush=True)
    for line in sys.stdin:
        item = json.loads(line)
        verdict = checker.check(Op(item["kind"], item["params"]), item["output"])
        print(json.dumps(verdict), flush=True)


def _measure(args, rng, pending, tracer):
    """Run the passes; return them, the failure reasons and the number of
    operations attempted."""
    from workloads import PASS_SECONDS, make_pass

    count = max(2 if tracer else 1, int(args.seconds // PASS_SECONDS[args.workload]))
    passes: list[dict] = []
    failures: list[str] = []
    attempted = 0
    with _checker() as check:
        for index in range(count):
            if index:
                pending = make_pass(args.workload, rng)
            traced = tracer is not None and index % 2 == 1
            call = tracer.op if traced else None
            results, latencies = [], []
            cpu0, t0 = time.process_time(), time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                for op in pending:
                    begin = time.perf_counter()
                    try:
                        results.append((op.run(call), None))
                    except Exception as exc:  # a failed op is counted, never fatal
                        results.append((None, f"{type(exc).__name__}: {exc}"))
                    latencies.append(time.perf_counter() - begin)
            passes.append({"traced": traced, "wall": time.perf_counter() - t0,
                           "cpu": time.process_time() - cpu0, "latencies": latencies})
            for op, (output, error) in zip(pending, results):
                attempted += 1
                reason = error or check(op, output)
                if reason:
                    failures.append(f"{op.kind} {op.params}: {reason}")
    return passes, failures, attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--checker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_package()
    if args.checker:
        _serve_checks()
        return 0
    from tracer import LAYER_METRICS, Tracer
    from workloads import make_pass

    rng = random.Random(args.seed)
    pending = make_pass(args.workload, rng)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    passes, failures, attempted = _measure(args, rng, pending, tracer)
    failed = len(failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in plain]
    latencies = [x for p in plain for x in p["latencies"]]
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        values = tracer.metrics(len(traced_passes), sum(p["wall"] for p in traced_passes))
        values["process.cpu_s"] = statistics.median(p["cpu"] for p in plain)
        values["process.cpu_util"] = sum(p["cpu"] for p in plain) / sum(walls)
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall"] for p in traced_passes) / statistics.median(walls))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_p90_s": {"value": _p90(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    report = {
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "ops_timed": len(latencies),
        "setup_probes": len(setup),
        "pass_walls_s": [round(p["wall"], 4) for p in passes],
        "op_latencies_s": [[round(x, 4) for x in p["latencies"]] for p in passes],
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "elapsed_s": round(time.perf_counter() - start, 3),
    }
    print(json.dumps({"provenance": _provenance(args)}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
