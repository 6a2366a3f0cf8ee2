"""Run one benchmark workload and print its metrics.

    python3 pipebench/run.py --workload stress_loopback --seed 1 --seconds 30 --trace 0

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every second pass is traced, and the
metrics are the per-layer ones. Spans of a traced run are written to
``pipebench/out/spans-<workload>-<seed>.jsonl``. Problems found by the
checks go to standard error, one line each.

Exit codes: 0 when the run completed, whatever the checks found; 2 when
the harness is not in this checkout or the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import sys

import pipeline
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pipeline.import_harness()
    except pipeline.HarnessMissing as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 2
    outcome = pipeline.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    notes: dict[str, str] = {}
    if args.trace:
        metrics, notes = pipeline.per_layer(outcome)
        outcome.tracer.write(pipeline.OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = pipeline.end_to_end(outcome)
    findings = outcome.findings
    for problem in findings.problems:
        print(problem, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {outcome.attempted} runs attempted, "
          f"{len(findings.failed)} failed, checks {'FAILED' if findings.problems else 'passed'}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": not findings.problems,
        "attempted": outcome.attempted,
        "failed": len(findings.failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
