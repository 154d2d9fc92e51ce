"""compalg benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py), because a `compalg verify` user pays for every
in-process cache and lazily built table on each run.  Load is one process on
one thread; the BLAS/OpenMP thread counts are pinned to 1 here and inherited
by every pass.

--trace 0: passes of the workload's seed until the next one would overrun
--seconds (at least MIN_PASSES), plus set-up-only interpreters until there
are SETUP_SAMPLES set-up times.  Reports the end-to-end metrics as medians.
--trace 1: one untraced and one traced pass of the same seed; reports the
per-layer metrics of the traced pass and trace.overhead_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the details (pass count, tail
percentile, fail_ratio, declared vs observed samples, environment).  The exit
status is 0 only when every pass met the correctness gate.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "compalg")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("verify", "positivity", "operator")
MIN_PASSES = 2
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassFailure(Exception):
    """A pass crashed, timed out or printed no result."""


def unit_of(name: str) -> str:
    """Unit of a metric: `layer.<x>_s[.suite]` names are seconds, ratios end in
    `yield` or `ratio`, everything else counts work."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    measure = name.split(".")[1]
    if measure.endswith("_s"):
        return "s"
    if measure.endswith(("yield", "ratio")):
        return "ratio"
    return "count"


def worker(workload, seed, size, *flags, expect=()):
    """Run one fresh interpreter; return its parsed JSON line and duration."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size, *flags]
    for item in expect:
        cmd += ["--expect", item]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailure(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise PassFailure(f"{workload} pass exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise PassFailure(f"{workload} pass printed no result")
    return json.loads(lines[-1]), elapsed


def gate_failures(passes) -> list:
    """Gate failures of each pass, then the same-seed determinism check."""
    problems = [g for p in passes for g in p["gate"]]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append(f"outputs of one seed differ between passes: {sorted(digests)}")
    return problems


def tail(values):
    """Highest percentile with at least 10 values beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    k = max(0, -(-pct * n // 100) - 1)
    return {"percentile": pct, "value": sorted(values)[k]}


def run_untraced(args):
    passes, durations = [], []
    t_begin = time.perf_counter()
    # At least MIN_PASSES: stopping after one slow pass would report the
    # slow runs with fewer passes than the fast ones.
    while True:
        p, elapsed = worker(args.workload, args.seed, args.size, expect=args.expect)
        passes.append(p)
        durations.append(elapsed)
        used = time.perf_counter() - t_begin
        if len(passes) >= MIN_PASSES and used + statistics.median(durations) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(args.workload, args.seed, args.size, "--setup-only")[0]["setup_s"])
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {"passes": len(passes), "wall_s_values": walls, "wall_s_tail": tail(walls),
               "setup_s_values": setups}
    return passes, metrics, details


def run_traced(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.bin")
    plain, _ = worker(args.workload, args.seed, args.size, expect=args.expect)
    traced, _ = worker(args.workload, args.seed, args.size, "--trace", "--spans", spans,
                       expect=args.expect)
    passes = [plain, traced]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    details = {"passes": 2, "untraced_wall_s": plain["wall_s"],
               "traced_wall_s": traced["wall_s"], "spans_file": os.path.relpath(spans, ROOT),
               "unwrapped": traced["unwrapped"]}
    if "samples" in traced:
        details["samples_declared_vs_observed"] = traced["samples"]
    return passes, metrics, details


def environment(passes) -> dict:
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC) for f in fs
                   if f.endswith(".py"))
    digest, lines = hashlib.sha256(), 0
    for path in files:
        with open(path, "rb") as f:
            data = f.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy") if passes else None,
        "commit": _commit(),
        "src.sha256": digest.hexdigest(),
        "src.lines": lines,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "pythonhashseed": "0",
    }


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_one(args) -> tuple[dict, dict]:
    """Run one workload; return (result line, details line)."""
    try:
        passes, metrics, details = (run_traced if args.trace else run_untraced)(args)
        problems = gate_failures(passes)
    except PassFailure as e:
        passes, metrics, details, problems = [], {}, {}, [str(e)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} calls failed or missed their verdict")
    for problem in problems:
        print(f"correctness gate failed on {args.workload}: {problem}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   seconds=args.seconds, gate_failures=problems,
                   fail_ratio=failed / attempted if attempted else None,
                   env=environment(passes))
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed if passes else max(attempted, 1),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, details


def summary(result, details) -> str:
    m = result["metrics"]
    parts = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in m.items()
             if k in END_TO_END_UNITS]
    ratio = details.get("fail_ratio")
    parts.append(f"fail_ratio {ratio if ratio is not None else 'n/a'} "
                 f"({result['failed']}/{result['attempted']} calls)")
    return f"{details['workload']}: " + ", ".join(parts) + f", passes {details.get('passes')}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the self-test")
    ap.add_argument("--expect", action="append", default=[],
                    help="override one expected witness, NAME=VALUE (self-test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: compalg sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, details = run_one(args)
        os.makedirs(OUT_DIR, exist_ok=True)
        name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT_DIR, name), "w") as f:
            json.dump({"result": result, "details": details}, f, indent=1)
        print(summary(result, details), file=sys.stderr)
        print(json.dumps(details))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result, details = run_one(argparse.Namespace(**{**vars(args), "workload": workload}))
        print(summary(result, details))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
