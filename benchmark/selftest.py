#!/usr/bin/env python3
"""Self-test of rlcut_bench: every workload of BENCHMARK.json at 1/8 size,
one rep, untraced and traced. Fails unless every run exits 0 with a
correct result line naming exactly the metrics (and units) BENCHMARK.json
declares, every trace file parses, and the whole test takes under 60 s.

  selftest.py --bench=PATH/rlcut_bench --spec=BENCHMARK.json --work_dir=DIR
"""

import argparse
import json
import os
import subprocess
import sys
import time

TIME_LIMIT_S = 60


def check_run(bench, spec, workload, trace, work_dir):
    out_dir = os.path.join(work_dir, "selftest")
    proc = subprocess.run(
        [bench, f"--workload={workload}", "--quick", f"--trace={trace}",
         f"--work_dir={work_dir}", f"--out={out_dir}"],
        capture_output=True, text=True, timeout=TIME_LIMIT_S)
    where = f"{workload} --trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metrics differ from BENCHMARK.json\n" \
                        f"  missing {sorted(set(want) - set(got))}\n" \
                        f"  extra {sorted(set(got) - set(want))}"
    if trace:
        with open(os.path.join(out_dir, f"{workload}.s1.trace.json")) as f:
            assert json.load(f)["traceEvents"], f"{where}: empty trace"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--work_dir", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    start = time.time()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(args.bench, spec, workload["name"], trace, args.work_dir)
    elapsed = time.time() - start
    assert elapsed < TIME_LIMIT_S, f"self-test took {elapsed:.1f} s"
    print(f"rlcut_bench self-test passed in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
