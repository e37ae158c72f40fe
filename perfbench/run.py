#!/usr/bin/env python3
"""Build and run the repository's benchmark.

One run (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds `perfbench/` (a cargo package of its own) in release mode, runs
one workload and passes its output through. The last line of standard
output is the result object; this script checks that it names exactly
the metrics BENCHMARK.json lists for the mode, and fails otherwise.

Spread mode runs workloads several times with consecutive seeds and
prints, per end-to-end metric, the median, quartiles, the quartile
spread and the worst deviation from the median, each against the
metric's bound, with the host reference loop of every run beside it:

    python3 perfbench/run.py --spread 10 [--workload NAME|all]
        [--seconds S] [--first-seed K]
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# The first run in a fresh checkout builds; later runs must end in 180 s.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_once(binary, args):
    """Runs the binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(trace):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    table = bench["per_layer"] if trace else bench["end_to_end"]
    return bench, {m["name"]: m["unit"] for m in table}


def validate(lines, trace):
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    _, want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    return result


def arg(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 >= len(argv):
            fail(f"{flag} needs a value")
        return argv[i + 1]
    return default


def single(argv):
    binary = build()
    trace = arg(argv, "--trace", "0") == "1"
    code, lines = run_once(binary, argv)
    for line in lines:
        print(line)
    if code != 0:
        sys.exit(code)
    validate(lines, trace)


def spread(argv):
    n = int(arg(argv, "--spread", "10"))
    which = arg(argv, "--workload", "all")
    seconds = arg(argv, "--seconds", None)
    first = int(arg(argv, "--first-seed", "1"))
    bench, _ = expected_metrics(False)
    seconds = seconds or str(bench["run_seconds"])
    names = [w["name"] for w in bench["workloads"]] if which == "all" else [which]
    binary = build()
    summary = {}
    for w in names:
        runs = []
        for seed in range(first, first + n):
            args = ["--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            code, lines = run_once(binary, args)
            if code != 0:
                fail(f"{w} seed {seed} exited {code}")
            result = validate(lines, False)
            host = next((l for l in lines if l.startswith("perfbench: host.ref_loop_ns")), "")
            runs.append((seed, result, host))
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {host.removeprefix('perfbench: ')}", flush=True)
        shares = {r["failed"] / r["attempted"] for _, r, _ in runs}
        print(f"{w}: failed shares {sorted(shares)}; all correct: {all(r['correct'] for _, r, _ in runs)}")
        summary[w] = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for _, r, _ in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med
            worst = max(abs(v - med) for v in vals) / med
            ok = "ok" if iqr <= m["bound"] / 3 else ("within bound" if iqr <= m["bound"] else "OVER BOUND")
            print(f"  {m['name']:<18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {iqr:6.3f} worst {worst:6.3f} bound {m['bound']}: {ok}")
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": iqr, "worst": worst, "bound": m["bound"]}
    print(json.dumps(summary))


def main():
    argv = sys.argv[1:]
    if "--spread" in argv:
        spread(argv)
    else:
        single(argv)


if __name__ == "__main__":
    main()
