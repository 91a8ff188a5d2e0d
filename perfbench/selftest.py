"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
every metric declared in BENCHMARK.json is printed with its unit and lands
in the final JSON line; that the mlp workload records no dgkd-head spans;
that a NaN injected into a score grid is counted as a failed operation
without crashing the benchmark; and that every workload config is accepted
by the ``dgkan run --config`` parser unchanged.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "workloads.json").read_text())


def bench(*args) -> tuple[int, str, dict | None]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "0", "--seconds", "1",
                           "--tiny", *args], stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, proc.stdout, result


def check_output(label: str, code: int, text: str, result, declared) -> list[str]:
    if code != 0 or result is None:
        return [f"{label}: exit code {code}, result {result!r}"]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    if sorted(result["metrics"]) != sorted(d["name"] for d in declared):
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    printed = {line.split()[0]: line.split() for line in text.splitlines()[:-1] if line.strip()}
    for d in declared:
        got = result["metrics"].get(d["name"], {})
        if got.get("unit") != d["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {d['name']} is {got!r}, declared unit {d['unit']}")
        if d["name"] not in printed or printed[d["name"]][2] != d["unit"]:
            errors.append(f"{label}: {d['name']} not printed with unit {d['unit']}")
    return errors


def main() -> int:
    errors = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, text, result = bench("--workload", workload, "--trace", str(trace))
            errors += check_output(f"{workload} trace={trace}", code, text, result,
                                   BENCHMARK[key])
            if trace and result and workload == "four-task-mlp" \
                    and result["metrics"]["kanheads.dgkd_spans"]["value"] != 0:
                errors.append("four-task-mlp recorded dgkd-head spans")
        print(f"checked {workload}", flush=True)

    code, text, result = bench("--workload", "four-task-mlp", "--inject-nan")
    if code != 0 or result is None or result["failed"] < 1 or result["correct"]:
        errors.append(f"injected NaN: exit code {code}, result {result!r}")
    elif "outside [0, 100]" not in text:
        errors.append("injected NaN: the grid check did not report it")
    print("checked NaN injection", flush=True)

    sys.path.insert(0, str(ROOT / "src"))
    from dgkan import cli
    for name, spec in SPEC["workloads"].items():
        cfg = cli.parse_config_text(spec["config"])
        if cli.parse_config_text("\n".join(cli.config_lines(cfg))) != cfg:
            errors.append(f"{name}: config does not survive the canonical round trip")

    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
