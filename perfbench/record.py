"""Record the final AA/AF of every workload at every data seed into
``workloads.json``; the benchmark's correctness check compares against them.

    python3 perfbench/record.py

Run it only when a change is meant to alter training behaviour, and say so
in the change's notes.  One full training run per (workload, data seed).
"""
import json
import sys

import worker


def main() -> int:
    dgkan = worker.import_dgkan()
    spec = worker.SPEC
    for name in sorted(spec["workloads"]):
        expected = {}
        for seed in spec["data_seeds"]:
            rec = worker.one_run(dgkan, name, seed, tiny=False)
            structural = [p for p in rec["problems"] if not p.startswith("final ")]
            if not rec["complete"] or structural:
                print(f"{name} seed {seed}: run failed: {structural}", file=sys.stderr)
                return 1
            expected[str(seed)] = {"aa": rec["aa"], "af": rec["af"]}
            print(f"{name} seed {seed}: aa={rec['aa']:.4f} af={rec['af']:.4f}", flush=True)
        spec["workloads"][name]["expected"] = expected
    (worker.HERE / "workloads.json").write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
