#!/usr/bin/env python3
"""Guard against benchmark regressions in CI.

Compares google-benchmark JSON result files of a change (CURRENT) with
those of its base commit built and run on the same host (BASELINE; CI's
bench-smoke job builds the base in a second tree and runs both trees
alternately) and fails when, for any CURRENT/BASELINE pair, the geometric
mean of the per-benchmark time ratios (current / baseline) exceeds
--max-ratio.

Either side of a pair may name several runs of one benchmark binary, as
files joined by commas; each benchmark's time on that side is then its
minimum over those runs. One process per side is too noisy to gate on:
the same binary's time can spread 1.6x from one process to the next,
while the minimum of three alternating processes per side separated a
doubled evaluation (1.76-1.89x) from unchanged code (0.86-0.99x).

Only benchmarks present in *both* files of a pair are compared (aggregate
rows like `_mean`/`_stddev` are skipped), so adding or removing a benchmark
never breaks the guard by itself. Times are normalized to nanoseconds using
each entry's `time_unit` before forming ratios, so the two files may use
different units.

The default --max-ratio of 1.5 deliberately leaves headroom for shared CI
runners: the guard is meant to catch structural regressions (an index
dropped, a fast path lost — typically 2x or worse), not scheduling noise.

Usage:
  check_bench_regression.py CURRENT.json[,RUN2.json...] \
      BASELINE.json[,RUN2.json...] [CURRENT2 BASELINE2 ...] [--max-ratio 1.5]

Exit status: 0 when every pair's geomean ratio is within bounds, 1 on a
regression or when a pair shares no benchmarks, 2 on usage errors. No
third-party dependencies.
"""

import argparse
import json
import math
import sys

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times_ns(path):
    """Maps benchmark name -> real_time in nanoseconds."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_bench_regression: cannot read {path}: {e}")
    times = {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("name")
        if not name or entry.get("run_type") == "aggregate":
            continue
        unit = entry.get("time_unit", "ns")
        if unit not in _NS_PER_UNIT:
            sys.exit(f"check_bench_regression: {path}: unknown time_unit "
                     f"'{unit}' for {name}")
        try:
            t = float(entry["real_time"])
        except (KeyError, TypeError, ValueError):
            continue
        if t > 0:
            times[name] = t * _NS_PER_UNIT[unit]
    return times


def load_min_times_ns(paths):
    """Maps benchmark name -> its least real_time in nanoseconds over the
    comma-separated run files `paths`."""
    best = {}
    for path in paths.split(","):
        for name, t in load_times_ns(path).items():
            best[name] = min(t, best.get(name, t))
    return best


def check_pair(current, baseline, max_ratio):
    """Prints the per-benchmark ratios of one pair; returns True when ok."""
    cur = load_min_times_ns(current)
    base = load_min_times_ns(baseline)
    shared = sorted(set(cur) & set(base))
    if not shared:
        print("check_bench_regression: no shared benchmarks between "
              f"{current} and {baseline}", file=sys.stderr)
        return False

    log_sum = 0.0
    for name in shared:
        ratio = cur[name] / base[name]
        log_sum += math.log(ratio)
        print(f"  {name}: {ratio:.3f}x "
              f"({cur[name] / 1e6:.3f} ms vs {base[name] / 1e6:.3f} ms)")
    geomean = math.exp(log_sum / len(shared))
    ok = geomean <= max_ratio
    verdict = "ok" if ok else "REGRESSION"
    print(f"check_bench_regression: {current} vs {baseline}: geomean "
          f"{geomean:.3f}x over {len(shared)} benchmark(s), max allowed "
          f"{max_ratio}x -> {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pairs", nargs="+", metavar="JSON",
                    help="alternating CURRENT BASELINE sides, each one "
                         "JSON file or several runs joined by commas")
    ap.add_argument("--max-ratio", type=float, default=1.5,
                    help="fail when any pair's geomean(current/baseline) "
                         "exceeds this (default: %(default)s)")
    args = ap.parse_args()
    if len(args.pairs) % 2 != 0:
        ap.error("expected an even number of files "
                 "(CURRENT BASELINE [CURRENT2 BASELINE2 ...])")

    ok = True
    for i in range(0, len(args.pairs), 2):
        if not check_pair(args.pairs[i], args.pairs[i + 1], args.max_ratio):
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
