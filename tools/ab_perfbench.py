#!/usr/bin/env python3
"""A/B the serve benchmark: a base revision against a change, in pairs.

For every workload in BENCHMARK.json this runs 10 pairs of the unchanged
perfbench/run.py at the benchmark's run_seconds, one run on each side per
pair. Pair i uses seed i + 1 on both sides and alternates which side runs
first, so slow drift of the host lands on both sides alike. It then prints,
for every end-to-end metric, each side's median and quartiles, the change's
wins out of the pairs (ties count for neither side), the ratio of medians
and a verdict:

  REGRESSION  the change's median is worse than the base's by more than the
              metric's BENCHMARK.json bound
  unresolved  either side's IQR/median exceeds the bound, so the runs spread
              too widely to tell (unless every change run beats every base
              run)
  gain        the change wins at least 9 of the 10 pairs (a pair with an
              incorrect run counts as no win) and its median is better by
              more than the base's IQR
  ok          none of the above

Quartiles interpolate linearly between order statistics. Every run's
"correct", "failed" and "attempted" are printed too.

Each side is an exported tree under --workdir with its own .bench_build/:
a revision is exported with `git archive` (reused while it exists), and
the working tree (the default change side) is copied from the tracked and
untracked, not ignored files, rewriting only files whose bytes changed so
its build stays incremental. Nothing is written to the repository's git
metadata. run.py builds each side before every run (incrementally; the
first run per side builds it cold), so a side that fails to build prints
no result and its runs count as failed. Every run's raw output, build log
tail included, lands in <workdir>/logs/.

Usage (from the repository root):
  tools/ab_perfbench.py --base REV [--change REV] [--workdir DIR]

Exit status: 0 when no metric regressed and every run was correct, 1 on a
REGRESSION or an incorrect or failed run (a build failure among them), 2
on usage errors. No third-party dependencies.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the "9 of 10 pairs" gain rule needs exactly this many


def quantile(sorted_vals, q):
    """Linear interpolation between order statistics (q in [0, 1])."""
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def spread(vals):
    """(q1, median, q3) of a non-empty list."""
    s = sorted(vals)
    return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)


def relative_iqr(vals):
    """IQR/|median|; infinite for a spread around a zero median."""
    q1, med, q3 = spread(vals)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def metric_verdict(metric, base, change):
    """Returns (verdict, wins) for paired value lists of one metric.

    The lists hold the pairs whose two runs were both correct; a missing
    pair counts as no win.
    """
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(c, b):
        return c < b if lower else c > b

    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    q1_b, med_b, q3_b = spread(base)
    _, med_c, _ = spread(change)
    worse_by = (med_c - med_b) if lower else (med_b - med_c)
    scale = abs(med_b)
    if scale == 0:
        # A zero base median (nothing measured): any change is a change of
        # unknown relative size, so only an exact tie is ok.
        return ("ok" if med_c == med_b else "unresolved"), wins
    if worse_by / scale > bound:
        return "REGRESSION", wins
    all_beat = all(better(c, b) for c in change for b in base)
    if max(relative_iqr(base), relative_iqr(change)) > bound and not all_beat:
        return "unresolved", wins
    if wins * 10 >= 9 * PAIRS and -worse_by > (q3_b - q1_b):
        return "gain", wins
    return "ok", wins


def run_is_correct(rec):
    res = rec.get("result")
    return (rec.get("error") is None and isinstance(res, dict) and
            res.get("correct") is True and res.get("failed") == 0)


def fmt(v):
    return "%.4g" % v


def summarize(bench, records, out=sys.stdout):
    """Prints the report for `records`; returns the exit status (0 or 1).

    A record is {"workload", "pair", "side" ("base"|"change"), "seed",
    "result" (perfbench's last-line JSON object, or null), "error" (a
    message, or null)}.
    """
    status = 0
    workloads = [w["name"] for w in bench["workloads"]]
    for w in sorted({r["workload"] for r in records} - set(workloads)):
        workloads.append(w)
    for w in workloads:
        recs = sorted((r for r in records if r["workload"] == w),
                      key=lambda r: (r["pair"], r["side"]))
        if not recs:
            continue
        pairs = sorted({r["pair"] for r in recs})
        print("== %s: %d pair(s)" % (w, len(pairs)), file=out)
        print("%-5s %-7s %-6s %-8s %-7s %s" %
              ("pair", "side", "seed", "correct", "failed", "attempted"),
              file=out)
        for r in recs:
            res = r.get("result") or {}
            ok = run_is_correct(r)
            if not ok:
                status = 1
            print("%-5d %-7s %-6s %-8s %-7s %s%s" % (
                r["pair"], r["side"], r.get("seed", "-"),
                json.dumps(res.get("correct")), json.dumps(res.get("failed")),
                json.dumps(res.get("attempted")),
                "" if ok else "   <- %s" % (r.get("error") or "incorrect run")),
                file=out)
        by_side = {}
        for r in recs:
            if run_is_correct(r):
                by_side[(r["pair"], r["side"])] = r["result"].get("metrics", {})
        print("%-14s %-30s %-30s %-7s %-6s %s" % (
            "metric", "base median [q1, q3]", "change median [q1, q3]",
            "ratio", "wins", "verdict"), file=out)
        for m in bench["end_to_end"]:
            name = m["name"]
            base, change = [], []
            missing = False
            for p in pairs:
                mb = by_side.get((p, "base"))
                mc = by_side.get((p, "change"))
                if mb is None or mc is None:
                    continue  # an incorrect run; already reported
                if (name in mb) != (name in mc):
                    missing = True
                if name in mb and name in mc:
                    base.append(float(mb[name]["value"]))
                    change.append(float(mc[name]["value"]))
            if missing:
                status = 1
                print("%-14s reported by one side only" % name, file=out)
                continue
            if not base:
                continue
            verdict, wins = metric_verdict(m, base, change)
            if verdict == "REGRESSION":
                status = 1
            q1_b, med_b, q3_b = spread(base)
            q1_c, med_c, q3_c = spread(change)
            ratio = fmt(med_c / med_b) if med_b else "n/a"
            print("%-14s %-30s %-30s %-7s %-6s %s" % (
                name, "%s [%s, %s]" % (fmt(med_b), fmt(q1_b), fmt(q3_b)),
                "%s [%s, %s]" % (fmt(med_c), fmt(q1_c), fmt(q3_c)), ratio,
                "%d/%d" % (wins, len(base)), verdict), file=out)
    print("ab_perfbench: %s" % ("FAIL" if status else "ok"), file=out)
    return status


# ---- running ---------------------------------------------------------------


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE).stdout


def export_revision(rev, workdir):
    """Exports `rev` once into workdir/<sha>/ and returns that path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    dest = os.path.join(workdir, sha[:12])
    stamp = os.path.join(dest, ".ab_exported")
    if not os.path.exists(stamp):
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("ab_perfbench: git archive %s failed" % rev)
        open(stamp, "w").close()
    return dest, sha[:12]


def export_working_tree(workdir):
    """Syncs the working tree into workdir/worktree/ and returns the path."""
    dest = os.path.join(workdir, "worktree")
    names = [n for n in git("ls-files", "-z", "--cached", "--others",
                            "--exclude-standard").decode().split("\0") if n]
    manifest_path = os.path.join(dest, ".ab_manifest")
    old = set()
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            old = set(f.read().split("\0")) - {""}
    present = []
    for n in names:
        src = os.path.join(ROOT, n)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        with open(src, "rb") as f:
            data = f.read()
        target = os.path.join(dest, n)
        if os.path.isfile(target):
            with open(target, "rb") as f:
                if f.read() == data:
                    present.append(n)
                    continue
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "wb") as f:
            f.write(data)
        shutil.copymode(src, target)
        present.append(n)
    for n in old - set(present):
        try:
            os.remove(os.path.join(dest, n))
        except FileNotFoundError:
            pass
    with open(manifest_path, "w") as f:
        f.write("\0".join(present))
    return dest, "worktree"


def run_once(side_dir, workload, seed, seconds, log_path):
    """One perfbench run; returns (result dict or None, error or None)."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=side_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=seconds * 20 + 600)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    output = proc.stdout.decode(errors="replace")
    errors = proc.stderr.decode(errors="replace")
    with open(log_path, "w") as f:
        f.write(output + errors)
    # The verdict is the last line of stdout, as check_perfbench_result.py
    # reads it.
    lines = [l for l in output.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        # run.py's own exit message (e.g. a failed build) ends stderr.
        last = [l for l in errors.splitlines() if l.strip()][-1:]
        return None, "no JSON result (exit %d)%s" % (
            proc.returncode, "".join(": " + l for l in last))
    return (result, None) if isinstance(result, dict) else (
        None, "last line is not a JSON object")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", help="base revision (e.g. HEAD~1)")
    parser.add_argument("--change",
                        help="change revision (default: the working tree)")
    parser.add_argument("--workdir",
                        default=os.path.join(ROOT, ".ab_perfbench"),
                        help="exported trees, their builds and run logs "
                             "(default: .ab_perfbench/ in the repository)")
    args = parser.parse_args(argv)
    if not args.base:
        parser.print_usage(sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    seconds = bench["run_seconds"]
    workdir = os.path.abspath(args.workdir)
    os.makedirs(os.path.join(workdir, "logs"), exist_ok=True)
    sides = {"base": export_revision(args.base, workdir)}
    sides["change"] = (export_revision(args.change, workdir) if args.change
                       else export_working_tree(workdir))

    records = []
    for w in [w["name"] for w in bench["workloads"]]:
        for i in range(PAIRS):
            seed = i + 1
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                path, label = sides[side]
                log = os.path.join(workdir, "logs",
                                   "%s-%02d-%s.txt" % (w, i, side))
                result, error = run_once(path, w, seed, seconds, log)
                rec = {"workload": w, "pair": i, "side": side, "seed": seed,
                       "result": result, "error": error}
                records.append(rec)
                print("ab_perfbench: %s pair %d %s (%s) seed %d: %s" % (
                    w, i, side, label, seed,
                    "correct" if run_is_correct(rec) else
                    (error or "INCORRECT")), flush=True)
    print("ab_perfbench: raw output in %s" % os.path.join(workdir, "logs"))
    return summarize(bench, records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
