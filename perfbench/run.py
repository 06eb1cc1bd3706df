"""Repository benchmark: run one workload, check it, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-i2 --seed 51 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seconds 16

One workload runs in this process (never a multiprocessing child, so
sharded execution is real and not demoted to inline).  ``--workload
all`` runs every workload, untraced then traced, each in a fresh
process, and prints a table of every metric with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 when the benchmark ran (even if outputs were
wrong: ``correct`` says so) and non-zero when it could not run.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pipeline-i2", "stream-shard-i2", "failover-pop200")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's")
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload size factor (tests use < 1)"
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale),
            ]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                sys.stderr.write(completed.stderr)
                print(f"{name}: failed to run (exit {completed.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {name} ({'traced' if trace else 'untraced'}) ==")
            print("\n".join(lines[:-1]))
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    seed = args.seed if args.seed is not None else workloads.SEEDS[args.workload][0]
    report = workloads.run_workload(
        args.workload,
        seed,
        args.seconds,
        bool(args.trace),
        scale=args.scale,
        import_s=import_s,
    )
    # Sharded runs start multiprocessing's resource tracker; stop it and
    # wait for it, so no process of this run outlives it.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    result = report["result"]
    print(
        f"workload {report['workload']} seed {report['seed']}:"
        f" {report['rounds']} untraced + {report['traced_rounds']} traced rounds,"
        f" reference {report['reference']}"
    )
    print("  round wall_s " + " ".join(f"{wall:.3f}" for wall in report["round_walls"]))
    print(
        f"  error_rate {report['error_rate']:.6g}"
        f" ({result['failed']}/{result['attempted']} failed)"
    )
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    for name, value in report["outcomes"].items():
        print(f"  {name:<34} {value:>14.6g}")
    print(f"  {'plan_s (not gated)':<34} {report['plan_s']:>14.6g} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
