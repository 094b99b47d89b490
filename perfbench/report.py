"""Print every benchmark metric of every workload, with its unit, the
output-check results and the sample counts.

    python3 perfbench/report.py [--seconds S] [--seed N]

Runs ``run.py`` untraced and traced for each workload, each in a fresh
process, and prints what they print. Exits non-zero if any run does.
"""

import argparse
import os
import subprocess
import sys

import checkout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args()
    checkout.add_source_path()
    import workloads

    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    status = 0
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            done = subprocess.run([sys.executable, run, "--workload", name, "--seed", args.seed,
                                   "--seconds", args.seconds, "--trace", trace])
            status = status or done.returncode
            print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
