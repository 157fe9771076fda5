#!/usr/bin/env python3
"""Build and run the dcir benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (inside the checkout's _build) and
runs it; the last line of standard output is the result JSON. With
--trace 1 on polybench-sweep and fuzz-cold, the traced run is made twice
with the same seed and every count-type per-layer metric must agree
between the two (the determinism self-check); a mismatch is printed and
makes the result incorrect.

Exits non-zero without printing a result when the build fails, e.g. in a
directory that holds only the benchmark and not the program.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

# Units of the per-layer metrics that must repeat exactly for the same
# seed on one domain: counts, simulated cycles, instructions, words
# allocated, and ratios of counts.
COUNT_UNITS = {"count", "cycles", "instrs", "words", "ratio"}
# Derived from wall time, or shared by several domains.
NOT_COUNTS = {"trace.overhead", "serve.pool_speedup"}
SELF_CHECKED = {"polybench-sweep", "fuzz-cold"}


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("perfbench: no dune-project here; run from the root of a dcir checkout\n")
        sys.exit(2)
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stderr)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def run(args):
    proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: bench.exe exited with %d\n" % proc.returncode)
        sys.exit(proc.returncode or 1)
    return lines[:-1], json.loads(lines[-1])


def main():
    argv = sys.argv[1:]
    opts = dict(zip(argv[0::2], argv[1::2]))
    build()
    table, result = run(argv)
    if opts.get("--trace") == "1" and opts.get("--workload") in SELF_CHECKED:
        _, again = run(argv)
        for name, m in result["metrics"].items():
            if m["unit"] in COUNT_UNITS and name not in NOT_COUNTS:
                other = again["metrics"].get(name, {}).get("value")
                if other != m["value"]:
                    sys.stderr.write("DETERMINISM %s: %r then %r for the same seed\n"
                                     % (name, m["value"], other))
                    result["correct"] = False
    for line in table:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
