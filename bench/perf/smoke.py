#!/usr/bin/env python3
"""perf_smoke: every workload at one batch, untraced and traced.

    python3 smoke.py <bench_perf binary> <bench/perf dir> <work dir>

Checks, per workload: exit code 0; the last stdout line is exactly
{correct, attempted, failed, metrics} with correct == true and failed == 0;
the metrics are the end-to-end set untraced and the per-layer set traced,
by the names and units in BENCHMARK.json, each a finite number; and the
golden digest in result.json is the same traced and untraced. Then checks
that malformed arguments exit 2.
"""
import json
import math
import os
import shutil
import subprocess
import sys


def main():
    exe, data, work = sys.argv[1:4]
    with open(os.path.join(data, "..", "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []

    def run(args, tag):
        cwd = os.path.join(work, tag)
        shutil.rmtree(cwd, ignore_errors=True)
        os.makedirs(cwd)
        p = subprocess.run([exe] + args + ["--data", data], cwd=cwd,
                           capture_output=True, text=True, timeout=600)
        return p, cwd

    for w in bench["workloads"]:
        digests = set()
        for trace in (0, 1):
            tag = "%s-trace%d" % (w["name"], trace)
            p, cwd = run(["--workload", w["name"], "--seed", "7",
                          "--seconds", "1", "--trace", str(trace),
                          "--batches", "1"], tag)
            if p.returncode != 0:
                problems.append("%s: exit %d\n%s" % (tag, p.returncode,
                                                     p.stderr[-2000:]))
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if res.get("correct") is not True or res.get("failed") != 0:
                problems.append("%s: not correct: %s" % (tag, res))
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics %s, want %s" % (tag, got,
                                                             want[trace]))
            for k, v in res["metrics"].items():
                if not (isinstance(v.get("value"), (int, float)) and
                        math.isfinite(v["value"])):
                    problems.append("%s: %s is not a finite number" % (tag, k))
            with open(os.path.join(cwd, "result.json")) as f:
                digests.add(json.load(f)["golden_digest"])
        if len(digests) != 1:
            problems.append("%s: traced and untraced digests differ: %s"
                            % (w["name"], digests))

    for args in (["--workload", "no-such-workload", "--seed", "1"],
                 ["--workload", "office18-dynamic", "--seed", "12x"],
                 ["--workload", "office18-dynamic", "--seed", "-1"],
                 ["--workload", "office18-dynamic", "--trace", "2"],
                 ["--workload", "office18-dynamic", "--seconds", "0"],
                 ["--workload", "office18-dynamic", "--bogus", "1"]):
        p, _ = run(args, "badargs")
        if p.returncode != 2 or p.stdout.strip():
            problems.append("%s: exit %d, stdout %r (want 2, empty)"
                            % (args, p.returncode, p.stdout))

    for msg in problems:
        print("FAIL " + msg)
    print("perf_smoke: %d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
