"""One benchmark process: either a set-up probe or a measured series of
complete training runs of one workload.

Started by ``run.py`` in a fresh interpreter, one at a time.  The thread
variables are pinned before numpy is imported, so BLAS and OpenMP run on one
thread.  The last line of standard output is one JSON object.

    python3 perfbench/worker.py setup   --workload NAME --data-seed N [--tiny]
    python3 perfbench/worker.py measure --workload NAME --data-seed N --seconds S
                                        --trace 0|1 [--tiny] [--inject-nan]
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((HERE / "workloads.json").read_text())

# Shrinks every workload to a size that runs in well under a second; used by
# the self-test only, and never checked against recorded quality values.
TINY = {"train_samples": 64, "eval_samples": 32, "epochs": 1, "memory_budget": 40}

LAYERS = ("synthbench", "kanheads", "losses", "fskdcp", "numcore", "continual", "cli")


def import_dgkan():
    """Import dgkan from this checkout's sources, never from site-packages."""
    if not (SRC / "dgkan" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: dgkan sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dgkan
    return dgkan


def setup(dgkan, workload: str, data_seed: int, tiny: bool):
    """Config, every train/eval split and a fresh Trainer: the run's set-up."""
    cfg = dgkan.cli.parse_config_text(SPEC["workloads"][workload]["config"])
    cfg.seed = data_seed
    if tiny:
        for key, val in TINY.items():
            setattr(cfg, key, val)
    dgkan.cli.validate_config(cfg)
    stream = dgkan.cli.build_stream(cfg)
    train = [dgkan.synthbench.dataset(stream, t, "train") for t in range(len(stream))]
    evals = [dgkan.synthbench.dataset(stream, t, "eval") for t in range(len(stream))]
    trainer = dgkan.continual.Trainer(dgkan.cli.trainer_config(cfg), cfg.seed)
    return cfg, train, evals, trainer


def grid_problems(matrix, T: int) -> list[str]:
    """The score grid is complete, lower-triangular and finite in [0, 100]."""
    problems = []
    if matrix.num_steps != T:
        problems.append(f"grid has {matrix.num_steps} rows, expected {T}")
    for metric in ("acc", "auc"):
        for i, row in enumerate(matrix.rows(metric), start=1):
            if len(row) != i:
                problems.append(f"{metric} row {i} has {len(row)} entries")
            bad = [v for v in row if not (math.isfinite(v) and 0.0 <= v <= 100.0)]
            if bad:
                problems.append(f"{metric} row {i} has values outside [0, 100]: {bad}")
    return problems


def memory_problems(trainer, cfg, T: int) -> list[str]:
    """Final memory lives in task-T space, fits the budget, covers every domain-class."""
    mem = trainer.memory
    if mem is None:
        return ["no feature memory after the last task"]
    problems = []
    if mem.space_task != T:
        problems.append(f"memory space_task {mem.space_task}, expected {T}")
    if len(mem) > cfg.memory_budget:
        problems.append(f"memory holds {len(mem)} rows, budget {cfg.memory_budget}")
    missing = sorted(set(range(2 * T)) - set(mem.domain_class.tolist()))
    if missing:
        problems.append(f"memory lacks domain-classes {missing}")
    return problems


def one_run(dgkan, workload, data_seed, tiny, tracer=None, inject_nan=False,
            reference_grid=None, between_tasks=None) -> dict:
    """One complete training run: set-up, every task, then the correctness check.

    Counts one operation per ``train_task`` call, per ``evaluate_all`` call
    and for the run's correctness check.  A failing operation ends the run
    and is recorded; it never raises.  ``reference_grid`` is the score grid
    of an earlier run of the same seed, which this run must reproduce.
    ``between_tasks`` is called before every task after the first; its time
    is left out of ``run_s``.
    """
    cfg, train, evals, trainer = setup(dgkan, workload, data_seed, tiny)
    T = len(train)
    rec = {"attempted": 0, "failed": 0, "train_s": [], "eval_s": [], "train_rows": [],
           "eval_rows": [], "complete": False}
    errors, check = [], []
    matrix = dgkan.continual.ScoreMatrix()
    frozen_bytes = []
    paused = 0.0
    rec["t0"] = time.perf_counter()
    for t in range(T):
        if between_tasks is not None and t:
            s = time.perf_counter()
            between_tasks()
            paused += time.perf_counter() - s
        rec["attempted"] += 1
        try:
            s = time.perf_counter()
            trainer.train_task(*train[t])
            rec["train_s"].append(time.perf_counter() - s)
        except Exception as exc:  # counted as a failed operation
            rec["failed"] += 1
            errors.append(f"train_task {t + 1}: {type(exc).__name__}: {exc}")
            break
        rec["train_rows"].append(train[t][0].shape[0] * cfg.epochs)
        if isinstance(trainer.head, dgkan.kanheads.DgkdHead):
            layers = trainer.head.layers
            for k, before in enumerate(frozen_bytes):
                if not layers[k].frozen or layers[k].param_vector().tobytes() != before:
                    check.append(f"dgkd layer {k + 1} changed during task {t + 1}")
            frozen_bytes.append(layers[-1].param_vector().tobytes())
        rec["attempted"] += 1
        try:
            s = time.perf_counter()
            accs, aucs = trainer.evaluate_all(evals[:t + 1])
            rec["eval_s"].append(time.perf_counter() - s)
            matrix.add_row(accs, aucs)
        except Exception as exc:
            rec["failed"] += 1
            errors.append(f"evaluate_all {t + 1}: {type(exc).__name__}: {exc}")
            break
        rec["eval_rows"].append(sum(e[0].shape[0] for e in evals[:t + 1]))
    else:
        rec["t1"] = time.perf_counter()
        rec["run_s"] = rec["t1"] - rec["t0"] - paused
        rec["complete"] = True
        if tracer is not None:
            with tracer.span("cli.artifacts"):
                dgkan.cli.scores_csv_text(matrix)
                dgkan.cli.summary_dict(matrix, cfg)
                OUT.mkdir(exist_ok=True)
                dgkan.fskdcp.save_memory(trainer.memory, OUT / f"memory_final-{workload}.csv")

    if inject_nan and matrix.num_steps:
        matrix.acc_rows[-1][0] = float("nan")
    rec["attempted"] += 1
    check += grid_problems(matrix, T)
    if rec["complete"]:
        check += memory_problems(trainer, cfg, T)
        rec["aa"] = dgkan.continual.average_accuracy(matrix, T, "acc")
        rec["af"] = dgkan.continual.average_forgetting(matrix, T, "acc")
        expected = SPEC["workloads"][workload]["expected"].get(str(data_seed))
        if expected is not None and not tiny:
            tol = SPEC["quality_tolerance_pp"]
            for key in ("aa", "af"):
                if not abs(rec[key] - expected[key]) <= tol:
                    check.append(f"final {key} {rec[key]!r} differs from the recorded "
                                 f"{expected[key]!r} by more than {tol} pp")
        rec["grid"] = [matrix.acc_rows, matrix.auc_rows]
        if reference_grid is not None and rec["grid"] != reference_grid:
            check.append("score grid differs from the first run of this seed")
    if check:
        rec["failed"] += 1
    rec["problems"] = errors + check
    return rec


def series(dgkan, workload, data_seed, seconds, tiny, inject_nan, tracer=None):
    """Complete runs until ``seconds`` would be exceeded, at least two; returns
    the runs and the host-speed kernel times, taken before and after every
    run and between the tasks of every untraced run.

    With a tracer, runs alternate untraced / traced, so the overhead of
    tracing is measured in the same process state.  Every run must
    reproduce the score grid of the first complete run.
    """
    per_round = 2 if tracer is not None else 1
    runs, kernel_s = [], []
    start = time.perf_counter()
    while True:
        kernel_s += [host_kernel_s() for _ in range(3)]
        traced = tracer is not None and len(runs) % 2 == 1
        if traced:
            tracer.run_id += 1
            tracer.install(dgkan)
        reference = next((r["grid"] for r in runs if r["complete"] and not r["failed"]), None)
        try:
            t0 = time.perf_counter()
            rec = one_run(dgkan, workload, data_seed, tiny, tracer if traced else None,
                          inject_nan and not runs, reference,
                          None if traced else lambda: kernel_s.append(host_kernel_s()))
            rec["wall_s"] = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        rec["run_id"] = tracer.run_id if traced else 0
        runs.append(rec)
        if len(runs) % per_round:
            continue
        elapsed = time.perf_counter() - start
        est = statistics.median(r["wall_s"] for r in runs) * per_round
        if len(runs) >= 2 and elapsed + est > seconds:
            return runs, kernel_s + [host_kernel_s() for _ in range(3)]


def host_kernel_s() -> float:
    """Time of a fixed numpy kernel that does not use dgkan.

    The host's speed drifts by a third over minutes on a shared machine; the
    kernel (small matmuls, tanh, exp and row sums at training-batch sizes)
    slows with it, so ``run.py`` scales timings by its mean time to a
    reference speed.  No change to dgkan can move it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((128, 32))
    w1 = rng.standard_normal((32, 64)) * 0.1
    w2 = rng.standard_normal((64, 16)) * 0.1
    t0 = time.perf_counter()
    for _ in range(300):
        h = np.tanh(x @ w1)
        z = h @ w2
        g = z - z.mean(0)
        dh = (g @ w2.T) * (1.0 - h * h)
        w2 -= 1e-4 * (h.T @ g)
        w1 -= 1e-4 * (x.T @ dh)
        s = z @ z.T
        e = np.exp(s - s.max(1, keepdims=True))
        e /= e.sum(1, keepdims=True)
    return time.perf_counter() - t0


# -- per-layer metrics from the spans ----------------------------------------------


def pct(values, q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    vals = sorted(values)
    return float(vals[max(0, math.ceil(q / 100.0 * len(vals)) - 1)])


def layer_metrics(spans, traced, untraced) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the spans of the
    complete traced runs; counts are per run."""
    windows = {r["run_id"]: (r["t0"], r["t1"]) for r in traced}
    spans = [s for s in spans if s[5] in windows]
    n = len(traced)
    run_total = sum(r["run_s"] for r in traced)
    child = defaultdict(float)
    for sid, parent, name, t0, t1, run_id, arg in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    heads = ("dgkd", "mlp")
    head_fwd = [f"kanheads.{h}.forward_cached" for h in heads]
    head_bwd = [f"kanheads.{h}.backward" for h in heads]
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    train_task_self = 0.0
    tasks_begun = defaultdict(int)
    fwdbwd = defaultdict(lambda: ([], []))   # task index -> (head fwd, head bwd) durations
    for sid, parent, name, t0, t1, run_id, arg in spans:   # in the order spans opened
        by_name[name].append((t1 - t0, arg))
        self_time = t1 - t0 - child[sid]
        layer_self[name.split(".")[0]] += self_time
        if name == "continual.train_task":
            train_task_self += self_time
            tasks_begun[run_id] += 1
        elif name in head_fwd or name in head_bwd:
            fwdbwd[tasks_begun[run_id]][name in head_bwd].append(t1 - t0)

    m = {}

    def timing(key, names, scale, unit):
        vals = [d * scale for nm in names for d, _ in by_name[nm]]
        m[key + ".p50"] = (pct(vals, 50), unit)
        m[key + ".p99"] = (pct(vals, 99), unit)
        m[key + ".count"] = (len(vals) / n, "count")

    timing("synthbench.gen_ms", ["synthbench.dataset"], 1e3, "ms")
    timing("kanheads.head_fwd_us", head_fwd, 1e6, "us")
    timing("kanheads.head_bwd_us", head_bwd, 1e6, "us")
    for label, task in (("task1", 1), ("tasklast", max(fwdbwd, default=0))):
        fwd, bwd = fwdbwd[task]
        m[f"kanheads.head_fwdbwd_us.{label}"] = (
            pct([(f + b) * 1e6 for f, b in zip(fwd, bwd)], 50), "us")
    m["kanheads.dgkd_spans"] = (sum(len(v) for k, v in by_name.items()
                                    if k.startswith("kanheads.dgkd.")) / n, "count")
    timing("kanheads.add_task_layer_ms", ["kanheads.add_task_layer"], 1e3, "ms")
    timing("kanheads.extractor_fwd_us", ["kanheads.extractor.forward_cached"], 1e6, "us")
    timing("kanheads.extractor_bwd_us", ["kanheads.extractor.backward"], 1e6, "us")
    timing("losses.supcon_us", ["losses.supcon_loss"], 1e6, "us")
    m["losses.supcon_rows"] = (pct([a for _, a in by_name["losses.supcon_loss"]], 50), "rows")
    timing("losses.bce_us", ["losses.bce_loss"], 1e6, "us")
    timing("losses.kd_us", ["losses.kd_loss"], 1e6, "us")
    timing("fskdcp.augment_us", ["fskdcp.augment_features"], 1e6, "us")
    timing("fskdcp.proj_apply_us", ["fskdcp.projection.apply"], 1e6, "us")
    m["fskdcp.proj_apply_rows"] = (
        pct([a for _, a in by_name["fskdcp.projection.apply"]], 50), "rows")
    timing("fskdcp.proj_step_us", ["fskdcp.train_projection_step"], 1e6, "us")
    timing("fskdcp.herding_ms", ["fskdcp.select_indices"], 1e3, "ms")
    herd = [arg for _, arg in by_name["fskdcp.select_indices"]]
    m["fskdcp.herding_pool_rows"] = (pct([a[0] for a in herd], 50), "rows")
    pool = sum(a[0] for a in herd)
    m["fskdcp.herding_kept_ratio"] = (sum(a[1] for a in herd) / pool if pool else 0.0, "ratio")
    timing("fskdcp.project_memory_ms", ["fskdcp.project_memory"], 1e3, "ms")
    timing("numcore.adam_us", ["numcore.adam_step"], 1e6, "us")
    m["numcore.adam_calls"] = (len(by_name["numcore.adam_step"]) / n, "count")
    m["continual.train_task_self_s"] = (train_task_self / n, "s")
    timing("continual.evaluate_ms", ["continual.evaluate_all"], 1e3, "ms")
    timing("continual.auc_us", ["continual.auc"], 1e6, "us")
    m["cli.artifacts_ms"] = (pct([d * 1e3 for d, _ in by_name["cli.artifacts"]], 50), "ms")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (layer_self[layer] / run_total, "ratio")
    traced_med = statistics.median(r["run_s"] for r in traced)
    untraced_med = statistics.median(r["run_s"] for r in untraced)
    m["trace.overhead_share"] = ((traced_med - untraced_med) / untraced_med, "ratio")
    covered = sum(min(t1, windows[run_id][1]) - max(t0, windows[run_id][0])
                  for _, parent, _, t0, t1, run_id, _ in spans
                  if parent < 0 and t1 > windows[run_id][0] and t0 < windows[run_id][1])
    m["trace.coverage"] = (covered / run_total, "ratio")
    m["trace.spans"] = (len(spans) / n, "count")
    return m


# -- entry points ------------------------------------------------------------------


def machine_info() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    dgkan = import_dgkan()
    setup(dgkan, args.workload, args.data_seed, args.tiny)
    return {"setup_s": time.perf_counter() - t0}


def cmd_measure(args) -> dict:
    dgkan = import_dgkan()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    info = machine_info()
    runs, kernel_s = series(dgkan, args.workload, args.data_seed, args.seconds, args.tiny,
                            args.inject_nan, tracer)
    info["loadavg_end"] = list(os.getloadavg())
    out = {
        "machine": info,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": [{k: r[k] for k in ("complete", "traced", "train_s", "eval_s", "train_rows",
                                    "eval_rows", "wall_s") + (("run_s", "aa", "af")
                                                              if r["complete"] else ())}
                 for r in runs],
    }
    if tracer is not None:
        done = [r for r in runs if r["complete"]]
        traced = [r for r in done if r["traced"]]
        untraced = [r for r in done if not r["traced"]]
        if traced and untraced:
            out["layers"] = layer_metrics(tracer.spans, traced, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.data_seed}.csv",
                     {"workload": args.workload, "data_seed": args.data_seed, **info})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-nan", action="store_true")
    args = parser.parse_args(argv)
    out = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
