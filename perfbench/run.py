"""lalec benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a lalec checkout. Workloads, metric names and units
come from BENCHMARK.json; why each workload exists is recorded beside it in
perfbench/workloads.py. Each workload runs a fixed amount of work for a
given seed, in a process of its own (workloads.py), so peak_rss_mb and
setup_s belong to that workload alone; set-up is also timed in three short
processes before it and three after, and setup_s is the median of the
seven. Every time in the end-to-end metrics is scaled by speed probes run
beside the work (see PROBE_INTERVAL_S in workloads.py), so that the
machine's own changes of speed cancel out; the times as measured are
printed on the lines starting with "measured". With --trace 1 the
per-layer metrics, which are not scaled, are printed instead of the
end-to-end ones.

--seconds is part of the benchmark's command-line interface; it must equal
run_seconds of BENCHMARK.json, the time the fixed work of an untraced run
was sized to. A run is stopped after TIME_LIMIT seconds.

Output: the digests of the seeded outputs, each metric with its unit (the
end-to-end ones also under the workload's own names), then one JSON line
with the keys correct, attempted, failed and metrics. At the default seed
the digests must equal perfbench/expected_digests.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_PROCESSES = 6
SETUP_TIMEOUT = 10.0
TIME_LIMIT = 170.0
# The workload's operation is a trial (search workloads) or a compile
# (compile_grammar); these are the metric names the workloads are known by.
# op_p50_ms and op_p99_ms are printed but not bounded. On search_cli the
# median falls where the latency clusters of KNN and LogRegGD trials meet,
# so a small shift of one against the other moves it far: two sets of ten
# runs spread it by 0.16 and 0.20, where wall_s spread 0.05 and 0.07. On
# compile_grammar op_p99_ms, the highest percentile with at least ten
# samples beyond it, falls between the clusters of the few slowest compiles
# of each pass (the feature_union unfolds): five seeds spread it by 0.18.
NAMED = {
    "trial": {"trials_per_s": "ops_per_s", "trial_p50_ms": "op_p50_ms",
              "trial_p90_ms": "op_p90_ms", "trial_p99_ms": "op_p99_ms"},
    "compile": {"compiles_per_s": "ops_per_s", "compile_p50_ms": "op_p50_ms",
                "compile_p90_ms": "op_p90_ms", "compile_p99_ms": "op_p99_ms"},
}
OPERATION = {"bandit_ablation": "trial", "search_cli": "trial", "compile_grammar": "compile"}


def child(args: list[str], timeout: float) -> dict:
    # One thread: numerical libraries must not start worker threads either.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(HERE / "workloads.py"), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"workload process {args} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "lalec" / "__init__.py").is_file():
        print(f"error: no lalec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds not in (None, bench["run_seconds"]):
        parser.error(f"--seconds must be {bench['run_seconds']}, the run_seconds of BENCHMARK.json")
    deadline = time.monotonic() + TIME_LIMIT

    # Set-up is timed in processes before and after the run as well, so its
    # median spans the run rather than one moment of a shared machine.
    def setup_s() -> dict:
        return child([args.workload, "--setup-only"], timeout=SETUP_TIMEOUT)

    setups = [] if args.trace else [setup_s() for _ in range(SETUP_PROCESSES // 2)]
    report = child([args.workload, str(args.seed), str(args.trace)],
                   timeout=deadline - time.monotonic() - SETUP_PROCESSES // 2 * SETUP_TIMEOUT)
    errors = list(report["errors"])
    if args.seed == DEFAULT_SEED:
        expected = json.loads((HERE / "expected_digests.json").read_text(encoding="utf-8"))
        if report["digests"] != expected.get(args.workload):
            errors.append("digests differ from perfbench/expected_digests.json")
    for name, value in sorted(report["digests"].items()):
        print(f"digest {args.workload}.{name} {value}")

    if args.trace:
        values = report["layers"]
        wanted = bench["per_layer"]
    else:
        setups.append({"setup_s": report["metrics"]["setup_s"],
                       "measured_setup_s": report["measured"]["setup_s"]})
        setups += [setup_s() for _ in range(SETUP_PROCESSES // 2)]
        values = dict(report["metrics"],
                      setup_s=statistics.median(s["setup_s"] for s in setups))
        measured = dict(report["measured"],
                        setup_s=statistics.median(s["measured_setup_s"] for s in setups))
        wanted = bench["end_to_end"]
        aliases = NAMED[OPERATION[args.workload]]
        for alias, name in aliases.items():
            print(f"named {alias} = {name} {values[name]!r} "
                  f"({report['samples']} samples in {report['passes']} passes)")
        if "decodes_per_s" in values:
            print(f"named decodes_per_s {values['decodes_per_s']!r} 1/s")
        for name, value in measured.items():
            print(f"measured {name} {value!r}")
        print(f"measured probe_scale {report['probe_scale']!r} (median; scaled = measured * scale)")
        print(f"named failed_share {report['failed'] / report['attempted']!r} "
              f"({report['failed']} of {report['attempted']}; "
              f"{report['designed']} designed refusals or traps not counted)")
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric {metric['name']} {value!r} {metric['unit']}")
    for error in errors:
        print(f"check failed: {error}")
    print(json.dumps({"correct": not errors, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
