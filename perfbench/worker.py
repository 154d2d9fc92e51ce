"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload verify --seed 0 [--trace]
        [--setup-only] [--size tiny] [--expect NAME=VALUE] [--spans FILE]

Set-up time runs from the first line of this file, before numpy and compalg
are imported, to the end of fixture building.  The timed pass runs from the
first call into compalg to the last verdict.  With --trace the tracer is
installed after the imports and before any fixture is built.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("verify", "positivity", "operator"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expect", action="append", default=[],
                    help="override one expected witness, NAME=VALUE")
    ap.add_argument("--spans", default="", help="write the traced spans here")
    args = ap.parse_args(argv)

    expected = {}
    for item in args.expect:
        key, _, value = item.partition("=")
        expected[key] = value

    import numpy as np
    import workloads

    unknown = set(expected) - set(workloads.EXPECTED)
    if unknown:
        ap.error(f"unknown expected witness {sorted(unknown)}")
    expected = {**workloads.EXPECTED, **expected}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()

    wl = workloads.WORKLOADS[args.workload]
    fx = wl.setup(args.seed, args.size)
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.reset()  # per-layer metrics cover the timed pass only
    result = {"setup_s": setup_s, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    t0 = time.perf_counter()
    out = wl.run(fx)
    wall_s = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # snapshot before the gate, whose own calls are not part of the pass
        result["layers"] = tracer.metrics()
        result["unwrapped"] = tracer.unwrapped
        if args.workload == "verify":
            declared = wl.declared_samples(out)
            result["samples"] = {
                name: {"declared": declared.get(name), **observed}
                for name, observed in tracer.suite_observed.items()
            }
        if args.spans:
            tracer.dump(args.spans)

    attempted = wl.attempted(fx)
    failed = attempted - sum(out["outcomes"])
    try:
        gate = wl.gate(fx, out, expected)
    except Exception as e:  # a gate that cannot evaluate the outputs fails
        gate = [f"gate raised {type(e).__name__}: {e}"]
    gate += out.get("raised", [])
    if len(out["outcomes"]) != attempted:
        gate.append(f"{len(out['outcomes'])} outcomes for {attempted} calls")
    result.update(wall_s=wall_s, attempted=attempted, failed=failed,
                  gate=gate, digest=wl.digest(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
