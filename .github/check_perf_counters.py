#!/usr/bin/env python3
"""Check a traced perfbench run against the committed exact work counters.

    python3 perfbench/run.py --workload sweep-live --seed 1 --seconds 20 --trace 1 > perfbench-trace.out
    python3 .github/check_perf_counters.py perfbench-trace.out .github/perf-counters.json

Exits 1 unless the run's last stdout line has `correct` true, `failed` 0 and
count-unit metrics equal to the file's `counts`. Each mismatch is named; on a
counter mismatch the actual counts are printed in the file's format.
"""

import json
import sys


def main(output_path, expected_path):
    with open(output_path) as f:
        result = json.loads(f.read().splitlines()[-1])
    with open(expected_path) as f:
        expected = json.load(f)
    want = expected["counts"]
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
    problems = [f"{name}: expected {want.get(name)}, got {counts.get(name)}"
                for name in sorted(want.keys() | counts.keys()) if want.get(name) != counts.get(name)]
    if problems:
        print(json.dumps({"seed": expected["seed"], "counts": counts}, indent=2))
    if not result["correct"] or result["failed"] != 0:
        problems.insert(0, f"correct is {result['correct']}, failed is {result['failed']}")
    for problem in problems:
        print(f"perf-counters: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
