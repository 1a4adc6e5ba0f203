"""Run one cfqa benchmark workload and print its result as the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-short --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
patches spans around each layer and prints the per-layer metrics instead.
The full result, with the environment record and, when traced, every span,
is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported: with OpenBLAS at
# its default of one thread per core, eval throughput spread ~17% run to
# run on a 2-core machine, against ~4% with one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import bench  # imports numpy, so only after the thread pin above

    result = bench.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    metrics = result["layers"] if args.trace else result["metrics"]

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)

    print("env " + json.dumps(result["env"], sort_keys=True))
    quality = result["quality"]
    print(f"quality em={quality['em']:.4f} f1={quality['f1']:.4f} "
          f"actions={json.dumps(quality['actions'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
