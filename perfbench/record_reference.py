"""Record the per-op digests that runs at the reference seed are checked
against.  Re-run only when a change is meant to alter exact outputs.

    python3 perfbench/record_reference.py
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as W

    ops = {}
    for name in W.WORKLOADS:
        stream = W.OpStream(name, run.REFERENCE_SEED)
        results = run.Runner().rounds(stream, float("inf"), last=run.PREGEN_ROUNDS - 1, hard_cap=float("inf"))
        bad = [r for r in results if not r["outcome"].ok]
        if bad:
            print(f"{name}: {len(bad)} ops failed, first: {bad[0]['outcome'].why}", file=sys.stderr)
            return 1
        ops[name] = [r["digest"] for r in results]
        print(f"{name}: {len(results)} ops in {run.PREGEN_ROUNDS} rounds", file=sys.stderr)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump({"seed": run.REFERENCE_SEED, "rounds": run.PREGEN_ROUNDS, "ops": ops}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
