#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's
median and spread (inter-quartile range as a share of the median, from
`statistics.quantiles(values, n=4)`), against the bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--seconds s]
        [--save medians.json] [--baseline medians.json] [workload ...]

Run from the root of the repository. Every spread, that of `setup_s`
included, must be within its metric's bound, and with `--baseline` (the
medians an earlier set saved with `--save`) no median may be worse than
the baseline's by more than the bound. Exits non-zero if a run fails or a
check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout[-2000:] + res.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} failed ({res.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} was not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"],
                   help="run length (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--save", type=Path, help="write the medians to this file")
    p.add_argument("--baseline", type=Path,
                   help="medians of an earlier set to compare against")
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    medians = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(bench["command"], workload, args.first_seed + i,
                         args.seconds) for i in range(args.runs)]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            medians.setdefault(workload, {})[name] = med
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            notes = []
            if spread > metric["bound"]:
                ok = False
                notes.append("NOT STEADY")
            old = baseline.get(workload, {}).get(name)
            if old is not None:
                worse = worse_by(metric, med, old)
                notes.append(f"vs baseline {worse:+.3f}")
                if worse > metric["bound"]:
                    ok = False
                    notes.append("WORSE THAN BASELINE")
            print(f"{workload:7} {name:16} median {med:14.6f} {metric['unit']:5} "
                  f"spread {spread:6.3f} (bound {metric['bound']:.2f}) "
                  f"[{' '.join(f'{v:.4g}' for v in values)}] {' '.join(notes)}")
            sys.stdout.flush()
    if args.save:
        args.save.write_text(json.dumps(medians, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
