"""Record the reference outputs of exact-desk and build-week for a seed range.

    python3 perfbench/record_reference.py FIRST LAST [WORKLOAD ...]

Run from the root of a source checkout.  For each seed (and each named
workload, by default exact-desk and build-week) it generates the
inputs, runs one untimed pass, checks it with the workload's own independent
checks, and stores in ``perfbench/reference.json``: the digest of the input
files, plus the objectives and tie-broken patterns (exact-desk) or the
SHA-256 of the MPS and LP emission (build-week).  The benchmark compares
against an entry only while the seed's inputs still hash to its digest.
"""

from __future__ import annotations

import json
import sys

import run as bench


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    first, last = int(argv[0]), int(argv[1])
    names = argv[2:] or ["exact-desk", "build-week"]
    if not bench.prepare():
        return 2
    from workloads import WORKLOADS

    path = bench.HERE / "reference.json"
    table = json.loads(path.read_text())
    for seed in range(first, last + 1):
        for name in names:
            workload = WORKLOADS[name]()
            with bench.scratch_dir(f"reference-{name}-{seed}") as work_dir:
                run = bench.Run(workload, seed, work_dir, probe=None)
                run.set_up()
                run.measure(0, trace=False)
            errors = workload.check(run.outcomes, None)
            failed = {key: err for key, err in errors.items() if err}
            failed.update({key: runs[0]["error"] for key, runs in run.outcomes.items()
                           if runs[0].get("error")})
            if failed:
                print(f"seed {seed} {name}: not recorded, {failed}", file=sys.stderr)
                continue
            table["seeds"].setdefault(str(seed), {})[name] = {
                "inputs": run.digest, **workload.reference_entry(run.outcomes)}
            print(f"seed {seed} {name}: recorded", flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
