"""Maintenance: record verdict digests and the baseline.

    python3 perfbench/record.py digests --seeds 1-10
    python3 perfbench/record.py baseline --seeds 1-10

``digests`` runs one checked pass per workload and seed and stores every
item's verdict digest in digests.json (a pass with any failed check is not
recorded).  ``baseline`` runs the benchmark command in a subprocess, once
per workload and seed untraced and once per workload traced, and writes
medians, quartiles, spreads, layer shares and machine facts to
baseline.json.  Both overwrite their file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import run as bench

HERE = bench.HERE
ROOT = bench.ROOT


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_digests(seeds):
    bench.import_program()
    import workloads

    config = bench.load_config()
    out = {}
    for name, spec in config["workloads"].items():
        workload = bench.Workload(name, spec["params"])
        out[name] = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                items = workload.setup(seed, tmp)
                checker = bench.Checker(workload, seed, len(items))
                checker.recorded = None  # record afresh
                bench.one_pass(workload, items, checker)
            if checker.failures:
                raise SystemExit(f"{name} seed {seed}: {checker.failures[:3]}")
            out[name][str(seed)] = "".join(checker.first[i] for i in range(len(items)))
            print(f"{name} seed {seed}: {len(items)} digests", flush=True)
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump({
            "digest_hex_per_item": workloads.DIGEST_HEX,
            "params": {name: spec["params"] for name, spec in config["workloads"].items()},
            "digests": out,
        }, fh, indent=1)
        fh.write("\n")


def run_command(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def machine():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "parent_commit": commit,
    }


def record_baseline(seeds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = bench.load_config()
    seconds = spec["run_seconds"]
    result = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            runs.append(run_command(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        end_to_end = {
            m["name"]: dict(summary([r["metrics"][m["name"]]["value"] for r in runs]),
                            unit=m["unit"], bound=m["bound"])
            for m in spec["end_to_end"]
        }
        traced = run_command(name, seeds[0], seconds, 1)["metrics"]
        total = traced["trace.traced_s"]["value"]
        shares = {
            k[: -len(".self_s")]: v["value"] / total
            for k, v in traced.items()
            if k.endswith(".self_s")
        }
        entry = config["workloads"][name]
        result["workloads"][name] = {
            "why": entry["why"],
            "params": entry["params"],
            "moves": entry["moves"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced.items()},
            "self_time_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        }
    result["claims"] = claims(result["workloads"])
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


def claims(workloads):
    """The traced figures behind each workload's reason for being."""
    share = {name: w["self_time_share"] for name, w in workloads.items()}
    calls = {name: w["per_layer"] for name, w in workloads.items()}
    swell = share["perturbed-swell"]
    germ_layers = ["germs.dimension_at_origin", "germs.tangent_cones_equal",
                   "germs.cm_certify", "poly.apply_linear_change"]
    return {
        "completion dominates perturbed-swell": {
            "completion_share": swell["standard_basis.completion"],
            "largest_layer": max(swell, key=swell.get),
        },
        "oracle is visible in corpus-verify, small in perturbed-swell": {
            name: share[name]["oracle.truncated_echelon"] for name in share
        },
        "germs.* and apply_linear_change only in job-suite": {
            name: {layer: calls[name][layer + ".calls"] for layer in germ_layers}
            for name in calls
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    if args.what == "digests":
        record_digests(args.seeds)
    else:
        record_baseline(args.seeds)


if __name__ == "__main__":
    main()
