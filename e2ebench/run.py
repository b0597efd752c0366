"""End-to-end benchmark of ``repro``: the evidence suite and serve sessions.

Run from the repository root::

    python3 e2ebench/run.py --workload evidence --seed 1 --seconds 20 --trace 0

Workloads: ``evidence``, ``evidence-columnar``, ``serve``,
``serve-certified`` (see e2ebench/README.md).  ``--trace 0`` measures
the end-to-end metrics untraced; ``--trace 1`` makes a separate traced
run and reports the per-layer metrics plus a per-layer self-time table.
Every metric is printed by name with its unit; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("evidence", "evidence-columnar", "serve", "serve-certified")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_sources():
        print(f"e2ebench: no repro sources under {common.SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2

    import wl_evidence
    import wl_serve

    module = wl_evidence if args.workload.startswith("evidence") else wl_serve
    runner = module.run_traced if args.trace else module.run
    try:
        report, tally = runner(args.workload, args.seed, args.seconds)
    finally:
        common.remove_scratch()

    title = f"{args.workload} seed={args.seed} trace={args.trace}"
    common.print_metrics(title, report["metrics"], report.get("notes"))
    if "table" in report:
        print("per-layer self time (traced run, all processes):")
        print(report["table"])
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
