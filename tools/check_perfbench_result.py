#!/usr/bin/env python3
"""Fail unless a perfbench run reports a correct result.

perfbench (perfbench/run.py) exits 0 whatever it finds; its verdict is the
JSON object on the last line of its stdout:

    {"correct": true, "attempted": 23657, "failed": 0, "metrics": {...}}

"correct" covers every response checked against the in-process replay,
the SIGKILL recovery check and the counter fidelity check; "failed" counts
requests that returned an error. This script reads saved perfbench output
and exits 0 only when, in every file given, that last line parses and
shows "correct": true and "failed": 0.

Usage:
  check_perfbench_result.py OUTPUT.txt [OUTPUT2.txt ...]

Exit status: 0 when every run is correct, 1 otherwise, 2 on usage errors.
No third-party dependencies.
"""

import json
import sys


def verdict(path):
    """Returns None for a correct run, else a one-line reason."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
    except OSError as e:
        return f"cannot read: {e}"
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not a JSON result: {lines[-1][:200]}"
    if not isinstance(result, dict):
        return "last line is not a JSON object"
    if result.get("correct") is not True:
        return f"\"correct\" is {json.dumps(result.get('correct'))}"
    if result.get("failed") != 0:
        return f"\"failed\" is {json.dumps(result.get('failed'))}"
    return None


def main(argv):
    if len(argv) < 2 or any(a.startswith("-") for a in argv[1:]):
        sys.stderr.write(__doc__)
        return 2
    status = 0
    for path in argv[1:]:
        reason = verdict(path)
        if reason is None:
            print(f"{path}: correct")
        else:
            print(f"{path}: FAILED: {reason}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
