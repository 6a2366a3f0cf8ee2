"""Steadiness check: run every workload of BENCHMARK.json repeatedly,
alternating between them, and print each end-to-end metric's median and
quartiles.

    python3 pipebench/steady.py --first-seed 1
    python3 pipebench/steady.py --first-seed 11 --against pipebench/out/steady-<time>.json

Every workload runs ten times, each run BENCHMARK.json's ``run_seconds``
long; run i of every workload uses seed ``first-seed + i``. For each metric the spread is the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median. A set passes when every run passed its checks, the
share of failed runs is the same in every run, and every spread except
``setup_s``'s is within its bound in BENCHMARK.json. The ``3x spread``
column is the smallest bound under which the spread would be below a
third of it.

With ``--against``, the set is also compared with an earlier one: for
every metric, this set's median must differ from the earlier set's by no
more than the bound, as a share of the earlier median, and the failed
shares must be equal. The ``worse by`` column gives the difference signed
in the metric's worse direction.

Every result is written to ``pipebench/out/steady-<time>.json``. Exit code
0 when the set (and the comparison) passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_shares(runs: list[dict]) -> set[float]:
    return {r["failed"] / r["attempted"] for r in runs}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, help="an earlier steady-<time>.json to compare with")
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = (json.loads(args.against.read_text(encoding="utf-8"))["results"]
               if args.against else None)

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(RUNS):
        for w in names:
            res = run_once(w, args.first_seed + i, spec["run_seconds"])
            results[w].append(res)
            print(f"run {i + 1}/{RUNS} {w}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    ok = True
    print(f"\n{'workload':16} {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'3x spread':>9}"
          + (f" {'earlier':>12} {'worse by':>8}" if earlier else ""))
    for w in names:
        runs = results[w]
        shares = failed_shares(runs)
        checked = all(r["correct"] for r in runs)
        ok = ok and checked and len(shares) == 1
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flags = []
            if name != "setup_s" and spread > m["bound"]:
                flags.append("SPREAD OVER BOUND")
            line = (f"{w:16} {name:20} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                    f"{spread:7.3f} {m['bound']:6.2f} {3 * spread:9.3f}")
            if earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                worse = (q2 - before) / before * (1 if m["better"] == "lower" else -1)
                line += f" {before:12.5g} {worse:8.3f}"
                if abs(worse) > m["bound"]:
                    flags.append("MEDIANS DIFFER BY MORE THAN BOUND")
            ok = ok and not flags
            print(line + "".join(f"  {f}" for f in flags))
        same = earlier is None or failed_shares(earlier[w]) == shares
        ok = ok and same
        print(f"{w:16} failed share {sorted(shares)}"
              + ("" if same else f" (earlier {sorted(failed_shares(earlier[w]))})")
              + f", checks {'passed' if checked else 'FAILED'}")
    out = BENCH_DIR / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": {**vars(args), "against": str(args.against or "")},
                               "results": results}, indent=1), encoding="utf-8")
    print(f"\nresults in {out.relative_to(ROOT)}; {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
