"""Time one set-up in a fresh process: import collapse_sim and build a
workload's inputs. Prints the seconds taken as its only output line.

    python3 perfbench/setup_probe.py --workload NAME --seed N --workdir DIR
"""

import argparse
import time

import checkout


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    start = time.perf_counter()
    checkout.add_source_path()
    import collapse_sim.cli  # noqa: F401

    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
