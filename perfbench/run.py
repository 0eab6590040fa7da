#!/usr/bin/env python3
"""Build and run the LOA auditor's benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--mini]
        Build the benchmark (release, offline) and run one workload. The
        last line of standard output is the JSON result; the exit code is
        non-zero when an output was wrong or an operation failed.

    python3 perfbench/run.py steady
        Steadiness check, the one the bounds were set from: run each
        workload as two sets of ten untraced runs, seeds 1-10, each
        BENCHMARK.json's run_seconds long, and print per metric each
        set's median and quartiles, the spread (quartile distance over
        median), whether it is within the metric's bound, and whether
        the two medians agree within it.

    python3 perfbench/run.py selftest
        Miniature inputs: run every workload untraced twice and traced
        once, in seconds, and check the result lines against
        BENCHMARK.json.

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); scenes are generated from the seed into
.bench_inputs and reused by later runs of the same seed and build.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; the first one of a checkout also builds.
RUN_TIMEOUT_S = 170
# `steady`: each set runs every workload once per seed of STEADY_SEEDS.
STEADY_SEEDS = range(1, 11)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark; return the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the repository's crates are not next to the benchmark; run from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run_once(exe, workload, seed, seconds, trace, mini=False, echo=True, log=None):
    """One run of the executable; returns (exit code, parsed result or None).

    With `echo` the run's standard output is copied to ours; with `log`
    (a list) its standard error is kept there instead of shown."""
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if mini:
        cmd.append("--mini")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              stderr=None if log is None else subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
    if log is not None:
        log.append(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
        except ValueError as e:
            print(f"perfbench: bad result line: {e}", file=sys.stderr)
    return proc.returncode, result


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"metric named more than once: {sorted(dup)}")
    return dict(pairs)


def parse_flags(argv, defaults):
    flags = dict(defaults)
    i = 0
    while i < len(argv):
        name = argv[i].lstrip("-").replace("-", "_")
        if name == "mini":
            flags["mini"] = True
            i += 1
            continue
        if name not in flags or i + 1 >= len(argv):
            fail(f"unknown flag or missing value: {argv[i]}")
        flags[name] = type(flags[name])(argv[i + 1])
        i += 2
    return flags


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady():
    bench = spec()
    exe = build()
    metrics = bench["end_to_end"]
    seeds = list(STEADY_SEEDS)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(2):
            runs = []
            for seed in seeds:
                code, result = run_once(exe, workload, seed, bench["run_seconds"], 0, echo=False)
                if code != 0 or not result or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    ok = False
                    continue
                runs.append((seed, result["metrics"]))
            sets.append(runs)
        print(f"\n{workload}: two sets of {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<24} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}"
              f" {'bound':>6}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for k, runs in enumerate(sets):
                values = [r[name]["value"] for _, r in runs if name in r]
                if not values:
                    print(f"  {name:<24} {k + 1:>3} missing")
                    ok = False
                    continue
                q1, q2, q3 = quartiles(values)
                meds.append(q2)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
                ok &= spread <= bound
                print(f"  {name:<24} {k + 1:>3} {q1:>12.5g} {q2:>12.5g} {q3:>12.5g} {spread:>8.4f}"
                      f" {bound:>6}  {verdict}")
            if len(meds) == 2:
                lower = metric["better"] == "lower"
                worse = (meds[1] - meds[0]) / meds[0] if lower else (meds[0] - meds[1]) / meds[0]
                agree = worse <= bound
                ok &= agree
                print(f"  {name:<24}     second median {'worse' if worse > 0 else 'better'} by"
                      f" {abs(worse):.4f}: {'agrees' if agree else 'DISAGREES'} within {bound}")
        # Quality depends on the seed alone: it must repeat exactly.
        for name in ("injected_mrr", "recall_at_10"):
            a = {s: r[name]["value"] for s, r in sets[0]}
            b = {s: r[name]["value"] for s, r in sets[1]}
            same = all(a[s] == b[s] for s in a.keys() & b.keys())
            ok &= same
            print(f"  {name} repeats exactly for each seed: {same}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def selftest():
    bench = spec()
    exe = build()
    problems = []

    def check(result, kind, label):
        if result is None:
            problems.append(f"{label}: no result line")
            return
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
        want = {m["name"]: m["unit"] for m in bench[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(want.keys() - got.keys())
            extra = sorted(got.keys() - want.keys())
            units = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
            problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {units}")
        for k, v in result["metrics"].items():
            if not isinstance(v["value"], (int, float)):
                problems.append(f"{label}: {k} has no value")

    for w in bench["workloads"]:
        name = w["name"]
        results = []
        for trace in (0, 0, 1):
            label = f"{name} mini {'traced' if trace else 'untraced'}"
            log = []
            code, result = run_once(exe, name, 1, 1, trace, mini=True, echo=False, log=log)
            before = len(problems)
            if code != 0:
                problems.append(f"{label}: exit code {code}")
            check(result, "per_layer" if trace else "end_to_end", label)
            if len(problems) > before:
                sys.stderr.write(log[0])
            results.append(result)
            print(f"{label}: exit {code}")
        a, b = results[0], results[1]
        if a and b:
            for q in ("injected_mrr", "recall_at_10"):
                if a["metrics"][q]["value"] != b["metrics"][q]["value"]:
                    problems.append(f"{name}: {q} differs between two runs of one seed")
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv):
    if argv == ["steady"]:
        return steady()
    if argv == ["selftest"]:
        return selftest()
    flags = parse_flags(argv, {"workload": "", "seed": 1, "seconds": 10, "trace": 0, "mini": False})
    if flags["trace"] not in (0, 1) or not flags["workload"]:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    exe = build()
    code, _ = run_once(exe, flags["workload"], flags["seed"], flags["seconds"], flags["trace"],
                       mini=flags["mini"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
