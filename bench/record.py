"""Record the reference outputs every benchmark run is compared against.

    python3 bench/record.py --workload random-session

For each unit of the workload's universe (see workloads.py) this builds the
unit's models, records their MVE partition, a cell without UMVUE and their
size descriptors, then runs every request of the unit and stores the
digest of each output in bench/data/<workload>.json. Run it only at a
commit whose outputs are trusted; a later change that alters any output
will then count as failed requests in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import execute
import workloads

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def coefficient_bits(model) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for p in model.pmf for c in p.terms.values()),
        default=0,
    )


def describe(umvue, model) -> dict:
    """What the workload generator records about a model: its MVE partition,
    one cell that is estimable but has no UMVUE (if any), and size
    descriptors. Computed once, outside any timed region."""
    basis, c = umvue.coefficient_matrix(model)
    rank = umvue.rank(c)
    partition = umvue.mve_partition(model)
    no_umvue = next((k for block in partition.blocks if len(block) > 1 for k in block
                     if umvue.umvue_for(model, model.pmf[k]).status
                     is umvue.Estimability.NO_UMVUE), None)
    return {
        "partition": [list(b) for b in partition.blocks],
        "no_umvue_cell": no_umvue,
        "size": {
            "N": model.n,
            "parameters": len(model.parameters),
            "monomials": len(basis),
            "rank": rank,
            "nullity": model.n - rank,
            "max_bits": coefficient_bits(model),
        },
    }


def record(umvue, cli_main, workload: str, workdir: Path) -> dict:
    rounds = []
    for r, recipes in enumerate(workloads.universe(workload)):
        units = []
        for recipe in recipes:
            models = workloads.unit_models(umvue, workload, recipe)
            meta = {key: describe(umvue, model) for key, model in models.items()}
            requests = workloads.materialize(umvue, workload, recipe, meta, workdir, seed=0)
            ref = {}
            for request in requests:
                _, output = execute.execute(umvue, cli_main, request)
                ref[request.id] = execute.digest(execute.complete(umvue, request, output))
            units.append({"recipe": recipe, "meta": meta, "ref": ref})
        rounds.append(units)
        print(f"{workload}: round {r + 1} recorded", file=sys.stderr, flush=True)
    return {"workload": workload, "rounds": rounds}


def dump(data: dict) -> str:
    """One unit per line, so that a re-recording diffs unit by unit."""
    lines = ['{"workload": ' + json.dumps(data["workload"]) + ', "rounds": [']
    for r, units in enumerate(data["rounds"]):
        lines.append("[")
        for u, unit in enumerate(units):
            lines.append(json.dumps(unit, separators=(",", ":"))
                         + ("," if u < len(units) - 1 else ""))
        lines.append("]" + ("," if r < len(data["rounds"]) - 1 else ""))
    lines.append("]}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import umvue
    import umvue.cli

    workdir = ROOT / ".bench_out" / f"record-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    data = record(umvue, umvue.cli.main, args.workload, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    DATA.mkdir(exist_ok=True)
    (DATA / f"{args.workload}.json").write_text(dump(data), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
