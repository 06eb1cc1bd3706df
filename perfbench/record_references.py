"""Record the per-seed reference outputs in ``references.json``.

    python3 perfbench/record_references.py [--seeds 51 52]

For every workload and each of its seeds (by default the default and
held-out seeds in ``workloads.SEEDS``) this runs one round and stores
the reference the benchmark checks later rounds against:

* ``pipeline-i2`` — the edge-only and coordinated report digests of
  the round's trace through the *streamed* engine;
* ``stream-shard-i2`` — the coordinated report digest of the same
  trace through the *inline* engine;
* ``failover-pop200`` — each chaos sub-run's leaderless epochs,
  takeover epoch, epochs to reconverge and bus message count.  The
  script refuses to record a run with invariant violations.

Re-record only when the program's outputs are meant to change (and
say so in the change), never to make a failing check pass.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(name: str, seed: int) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    measured = workload.round()
    reference = workload.oracle()
    if reference is not None:
        return reference
    for subseed, outcome in measured.outputs.items():
        if outcome["violation_epochs"] or outcome["takeover_epoch"] is None:
            raise SystemExit(f"{name} seed {subseed}: run failed, not recording")
    return measured.outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="*")
    args = parser.parse_args()
    references = workloads.load_references()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        for seed in args.seeds or workloads.SEEDS[name]:
            references.setdefault(name, {})[str(seed)] = record(name, seed)
            print(f"recorded {name} seed {seed}", flush=True)
    with open(workloads.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
