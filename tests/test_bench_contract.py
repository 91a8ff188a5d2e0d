"""The benchmark's contract with dgkan.

Every entry of ``perfbench/tracing.py``'s ``TRACED`` table must resolve in
dgkan, in the place the tracer patches it.

Methods must sit in their own class's ``__dict__`` (the tracer reads
``cls.__dict__[attr]``) and functions must be module attributes (the tracer
rebinds every module-level name bound to the same object).  A rename, a
merge into a base class or a deleted function breaks ``Tracer.install``;
this test catches that before a benchmark run does.

Every workload's set-up (``worker.py setup``: config parse, the TINY
overrides set by ``setattr``, ``validate_config``, ``trainer_config`` and a
fresh ``Trainer``) must run, so a config change that breaks it fails here
rather than in a benchmark run.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dgkan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = sorted(json.loads((PERFBENCH / "workloads.json").read_text())["workloads"])


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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_setup_runs(workload):
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "setup", "--workload",
                           workload, "--data-seed", "0", "--tiny"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    assert isinstance(setup_s, float) and setup_s >= 0.0
