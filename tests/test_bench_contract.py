"""The benchmark's contract with dgkan.

Every entry of ``perfbench/tracing.py``'s ``TRACED`` table must resolve in
dgkan, in the place the tracer patches it.

Methods must sit in their own class's ``__dict__`` (the tracer reads
``cls.__dict__[attr]``) and functions must be module attributes (the tracer
rebinds every module-level name bound to the same object).  A rename or a
deleted function breaks ``Tracer.install``; this test catches that before a
benchmark run does.  A method merged into a base class is fine as long as
each traced subclass binds it in its own class body
(``forward = SiluMlp.forward``): the tracer then wraps each class's entry
under that class's span name.

An alias is not fine: ``MlpHead = FeatureExtractor`` or
``align_loss = kd_loss`` still resolves, but the tracer then wraps one object
twice, so spans nest and one layer's time is counted under another's name.
A traced two-task run checks that no traced layer call sits inside another
and that each is counted once per training step, ``numcore.adam_step`` once
per parameter vector stepped.

Every workload's set-up (``worker.py setup``: config parse, the TINY
overrides set by ``setattr``, ``validate_config``, ``trainer_config`` and a
fresh ``Trainer``) must run, and so must its untraced tiny measured runs
(``worker.py measure --tiny --trace 0``, which write no file) with no failed
operation and no problem.  A change to what ``one_run`` reads of a trainer
(``trainer.memory``, ``head.layers[k].frozen``) then fails here rather than
in a benchmark run.
"""
import importlib.util
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dgkan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = sorted(json.loads((PERFBENCH / "workloads.json").read_text())["workloads"])
BENCH_WORKLOADS = [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(mod_name: str, qual: str):
    """The object the tracer wraps for one TRACED entry."""
    module = getattr(dgkan, mod_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(module, cls_name).__dict__[attr]
    return getattr(module, qual)


def _package_bindings() -> dict:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "dgkan" or name.startswith("dgkan."))}


def test_traced_entries_resolve():
    tracing = _load_tracing()
    for mod_name, qual, _, _ in tracing.TRACED:
        module = getattr(dgkan, mod_name)
        if "." in qual:
            cls_name, attr = qual.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{mod_name}.{qual} not in its class"
        else:
            assert callable(getattr(module, qual, None)), f"{mod_name}.{qual} does not resolve"


def test_install_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    originals = {(m, q): _lookup(m, q) for m, q, _, _ in tracing.TRACED}
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install(dgkan)
    try:
        for (mod_name, qual), raw in originals.items():
            assert _lookup(mod_name, qual) is not raw, f"{mod_name}.{qual} was not wrapped"
        dgkan.continual.accuracy([1.0, -1.0], [1, 0])
        assert [span[2] for span in tracer.spans] == ["continual.accuracy"]
    finally:
        tracer.uninstall()
    for (mod_name, qual), raw in originals.items():
        assert _lookup(mod_name, qual) is raw, f"{mod_name}.{qual} not restored"
    after = _package_bindings()
    for name, bindings in before.items():
        assert all(after[name].get(key) is val for key, val in bindings.items()), name


def test_traced_mlp_run_spans_are_flat_and_counted():
    tracing = _load_tracing()
    cfg = dgkan.continual.TrainerConfig(head="mlp", epochs=1)
    train_n = 96
    stream = dgkan.synthbench.gen_sequence("two-task-overlap", 11, train_n=train_n, eval_n=32)
    steps_per_task = math.ceil(train_n / cfg.batch_size) * cfg.epochs
    tracer = tracing.Tracer()
    tracer.install(dgkan)
    try:
        dgkan.continual.run_stream(stream, cfg)
    finally:
        tracer.uninstall()
    names = {span[0]: span[2] for span in tracer.spans}
    layers = ("kanheads.", "losses.")
    nested = [(names[parent], name) for _, parent, name, *_ in tracer.spans
              if parent >= 0 and name.startswith(layers) and names[parent].startswith(layers)]
    assert nested == []
    counts = Counter(names.values())
    assert counts["kanheads.extractor.forward_cached"] == 2 * steps_per_task
    assert counts["kanheads.mlp.forward_cached"] == 2 * steps_per_task
    assert counts["losses.kd_loss"] == steps_per_task       # task 2 only
    assert counts["losses.align_loss"] == steps_per_task
    # the extractor and the head take one Adam step each per training step,
    # the projection one per task-2 step: what numcore.adam_calls counts
    assert counts["numcore.adam_step"] == 2 * 2 * steps_per_task + steps_per_task
    # one frozen teacher, taken at task 2's start; task 1 reads none
    assert counts["kanheads.extractor.snapshot"] == 1


@pytest.fixture(scope="module")
def traced_dgkd_run():
    """Spans of a traced two-task data-free dgkd run, with its training rows
    and steps per task."""
    tracing = _load_tracing()
    cfg = dgkan.continual.TrainerConfig(head="dgkd", epochs=1)
    train_n = 96
    stream = dgkan.synthbench.gen_sequence("two-task-overlap", 11, train_n=train_n, eval_n=32)
    steps_per_task = math.ceil(train_n / cfg.batch_size) * cfg.epochs
    assert cfg.memory_budget >= train_n           # the task-2 memory holds every task-1 row
    tracer = tracing.Tracer()
    tracer.install(dgkan)
    try:
        dgkan.continual.run_stream(stream, cfg)
    finally:
        tracer.uninstall()
    return tracer.spans, train_n, steps_per_task


def test_traced_data_free_run_projects_the_memory_outside_augment(traced_dgkd_run):
    # the trainer moves the memory through the live projection itself, once
    # per task-2 step, so fskdcp.proj_apply_us and fskdcp.proj_apply_rows
    # time the whole memory and fskdcp.augment_us times only the draw; the
    # exactly-once re-projection at the task end adds one more call
    spans, train_n, steps_per_task = traced_dgkd_run
    names = {span[0]: span[2] for span in spans}
    applies = Counter((names.get(parent), arg) for _, parent, name, *_, arg in spans
                      if name == "fskdcp.projection.apply")
    assert applies == {("continual.train_task", train_n): steps_per_task,
                       ("fskdcp.project_memory", train_n): 1}
    counts = Counter(names.values())
    assert counts["fskdcp.augment_features"] == steps_per_task
    assert all(names[parent] == "continual.train_task" for _, parent, name, *_ in spans
               if name == "fskdcp.augment_features")


def test_traced_dgkd_head_spans_are_flat_and_counted(traced_dgkd_run):
    # no traced head method calls another: forward runs the untraced
    # DgLayer.forward per layer and forward_cached its own stacked body, so an
    # eval forward adds nothing to the training-step head timing
    # (kanheads.head_fwd_us)
    spans, _, steps_per_task = traced_dgkd_run
    names = {span[0]: span[2] for span in spans}
    nested = [(names[parent], name) for _, parent, name, *_ in spans
              if name.startswith("kanheads.dgkd.") and parent >= 0
              and names[parent].startswith("kanheads.")]
    assert nested == []
    counts = Counter(names.values())
    assert counts["kanheads.dgkd.forward_cached"] == 2 * steps_per_task
    assert counts["kanheads.dgkd.backward"] == 2 * steps_per_task
    # one scores call per seen task after each task: 1 + 2
    assert counts["kanheads.dgkd.forward"] == counts["continual.scores"] == 3
    assert counts["kanheads.extractor.snapshot"] == 1
    assert counts["kanheads.add_task_layer"] == 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_setup_runs(workload):
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "setup", "--workload",
                           workload, "--data-seed", "0", "--tiny"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    assert isinstance(setup_s, float) and setup_s >= 0.0


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_worker_tiny_measure_runs_clean(workload):
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "measure", "--workload",
                           workload, "--data-seed", "0", "--tiny", "--trace", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0 and out["problems"] == []
    assert out["runs"] and all(run["complete"] for run in out["runs"])
