#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run it from the root of a checkout. For every workload and both trace
modes it runs `run.py --tiny` and checks that the result line is the last
line of stdout, that every metric BENCHMARK.json names for that mode is
printed with its declared unit and nothing else, and that the run is correct
with no failed operations. Then it runs each workload with --break-oracle,
which moves every oracle value by one ulp, and checks that the run reports
"correct": false. Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--tiny", *extra]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            try:
                result = run(workload, trace)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                if printed != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(printed))
                    extra = sorted(set(printed) - set(expected[trace]))
                    wrong = sorted(k for k in printed.keys() & expected[trace]
                                   if printed[k] != expected[trace][k])
                    raise AssertionError(f"missing {missing}, unexpected "
                                         f"{extra}, wrong unit {wrong}")
                if not all(isinstance(v["value"], (int, float))
                           for v in result["metrics"].values()):
                    raise AssertionError("a metric value is not a number")
                if not result["correct"] or result["failed"] != 0:
                    raise AssertionError(f"correct={result['correct']} "
                                         f"failed={result['failed']}")
                print(f"ok   {label}")
            except (AssertionError, ValueError, KeyError,
                    subprocess.TimeoutExpired) as e:
                failures.append(label)
                print(f"FAIL {label}: {e}")
        label = f"{workload} --break-oracle"
        try:
            if run(workload, "0", "--break-oracle")["correct"]:
                raise AssertionError("a wrong oracle value did not fail the run")
            print(f"ok   {label}")
        except (AssertionError, ValueError, KeyError,
                subprocess.TimeoutExpired) as e:
            failures.append(label)
            print(f"FAIL {label}: {e}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
