"""Self-test of the benchmark at tiny sizes; exits non-zero on any failure.

    python3 perfbench/selftest.py

Checks that
- every metric named in BENCHMARK.json is emitted, with its unit, and no other;
- all counts of the traced run repeat exactly for one seed;
- the correctness gate fires on a deliberately wrong expected witness;
- without the compalg sources the benchmark exits non-zero and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

from tracer import LAYERS, load_spans, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 3

# one wrong expected witness per workload
WRONG = {
    "verify": "verify.gamma_rep=weyl-perm(3, 2, 1)-signs(1, 1, 1)",
    "positivity": "positivity.elliptic_min=1",
    "operator": "operator.berezin_tol=1e-30",
}


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last


def check_spans(workload, result) -> list:
    """Self times recomputed from the written spans match the reported ones."""
    header, cols = load_spans(os.path.join(ROOT, ".perfbench", f"spans-{workload}.bin"))
    if len(cols["start"]) != sum(result["metrics"][f"{l}.calls"]["value"] for l in LAYERS):
        return [f"{workload}: span count differs from the sum of layer calls"]
    recomputed = self_times(header, cols)
    return [f"{workload}: {layer}.self_s {result['metrics'][f'{layer}.self_s']['value']} "
            f"vs {seconds} from spans"
            for layer, seconds in recomputed.items()
            if abs(result["metrics"][f"{layer}.self_s"]["value"] - seconds) > 1e-6]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    for w in (w["name"] for w in bench["workloads"]):
        traced = []
        for trace in (0, 1, 1):
            code, result = run(w, trace)
            if code != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{w} trace {trace}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(k for k in got if k in declared[trace]
                               and got[k] != declared[trace][k])
                problems.append(f"{w} trace {trace}: missing {missing}, extra {extra}, "
                                f"wrong units {wrong}")
            if trace:
                traced.append(result)
                problems += check_spans(w, result)
        if len(traced) == 2:
            first, second = ({k: v["value"] for k, v in r["metrics"].items()
                              if v["unit"] in ("count", "ratio")} for r in traced)
            if first != second:
                diff = sorted(k for k in first if first[k] != second.get(k))
                problems.append(f"{w}: counts differ between two traced runs: {diff}")
            if traced[0]["attempted"] != traced[1]["attempted"]:
                problems.append(f"{w}: attempted differs between two traced runs")

        code, result = run(w, 0, "--expect", WRONG[w])
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{w}: gate did not fire on wrong witness {WRONG[w]!r}")
        print(f"{w}: checked", flush=True)

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload", "verify",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
