"""In-memory span recorder that wraps the public functions and methods of the
dgkan layers from outside the library.

Each span is (id, parent, name, start, end, run_id, arg): ``name`` is
``<layer>.<callable>``, ``parent`` is the id of the enclosing span (-1 at the
root) and ``arg`` is an optional size recorded at the call (rows).
Spans stay in memory until ``write`` is called at the end of the process.

Several dgkan modules bind library functions by name at import
(``from .losses import supcon_loss``), so wrapping a function rebinds every
module-level name in the package that refers to the original object.
"""
from __future__ import annotations

import csv
import functools
import sys
import time
from contextlib import contextmanager


def _rows(x):
    return int(getattr(x, "shape", (0,))[0])


# (module, qualified name, span name, size recorded with the span).
# Size callables receive (args, result).
TRACED = [
    ("synthbench", "gen_sequence", "synthbench.gen_sequence", None),
    ("synthbench", "dataset", "synthbench.dataset", None),
    ("kanheads", "add_task_layer", "kanheads.add_task_layer", None),
    ("kanheads", "make_baseline_head", "kanheads.make_baseline_head", None),
    ("kanheads", "FeatureExtractor.forward", "kanheads.extractor.forward", None),
    ("kanheads", "FeatureExtractor.forward_cached", "kanheads.extractor.forward_cached", None),
    ("kanheads", "FeatureExtractor.backward", "kanheads.extractor.backward", None),
    ("kanheads", "FeatureExtractor.param_vector", "kanheads.extractor.param_vector", None),
    ("kanheads", "FeatureExtractor.set_param_vector", "kanheads.extractor.set_param_vector", None),
    ("kanheads", "FeatureExtractor.snapshot", "kanheads.extractor.snapshot", None),
    ("kanheads", "DgkdHead.forward", "kanheads.dgkd.forward", None),
    ("kanheads", "DgkdHead.forward_cached", "kanheads.dgkd.forward_cached", None),
    ("kanheads", "DgkdHead.backward", "kanheads.dgkd.backward", None),
    ("kanheads", "DgkdHead.param_vector", "kanheads.dgkd.param_vector", None),
    ("kanheads", "DgkdHead.set_param_vector", "kanheads.dgkd.set_param_vector", None),
    ("kanheads", "MlpHead.forward", "kanheads.mlp.forward", None),
    ("kanheads", "MlpHead.forward_cached", "kanheads.mlp.forward_cached", None),
    ("kanheads", "MlpHead.backward", "kanheads.mlp.backward", None),
    ("kanheads", "MlpHead.param_vector", "kanheads.mlp.param_vector", None),
    ("kanheads", "MlpHead.set_param_vector", "kanheads.mlp.set_param_vector", None),
    ("losses", "bce_loss", "losses.bce_loss", None),
    ("losses", "supcon_loss", "losses.supcon_loss", lambda a, r: _rows(a[0].features)),
    ("losses", "kd_loss", "losses.kd_loss", None),
    ("losses", "align_loss", "losses.align_loss", None),
    ("losses", "overall_loss", "losses.overall_loss", None),
    ("fskdcp", "augment_features", "fskdcp.augment_features", None),
    ("fskdcp", "KdcpProjection.init", "fskdcp.projection.init", None),
    ("fskdcp", "KdcpProjection.apply", "fskdcp.projection.apply", lambda a, r: _rows(a[1])),
    ("fskdcp", "train_projection_step", "fskdcp.train_projection_step", None),
    ("fskdcp", "select_indices", "fskdcp.select_indices", lambda a, r: (_rows(a[0]), len(r))),
    ("fskdcp", "project_memory", "fskdcp.project_memory", None),
    ("fskdcp", "save_memory", "fskdcp.save_memory", None),
    ("numcore", "adam_step", "numcore.adam_step", None),
    ("continual", "Trainer.train_task", "continual.train_task", None),
    ("continual", "Trainer.evaluate_all", "continual.evaluate_all", None),
    ("continual", "Trainer.scores", "continual.scores", None),
    ("continual", "accuracy", "continual.accuracy", None),
    ("continual", "auc", "continual.auc", None),
    ("cli", "parse_config_text", "cli.parse_config_text", None),
    ("cli", "trainer_config", "cli.trainer_config", None),
    ("cli", "build_stream", "cli.build_stream", None),
    ("cli", "scores_csv_text", "cli.scores_csv_text", None),
    ("cli", "summary_dict", "cli.summary_dict", None),
]


class Tracer:
    """Records nested spans around wrapped callables of the dgkan package."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, arg):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, t0, t1, self.run_id, arg)

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0, None)

    def _wrap(self, fn, name, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._close(sid, parent, name, t0,
                              size(args, out) if size is not None and out is not None else None)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every entry of ``TRACED`` in the imported ``package``."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod_name, qual, name, size in TRACED:
            module = getattr(package, mod_name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, None))
                else:
                    new = self._wrap(raw, name, size)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
            else:
                raw = getattr(module, qual)
                new = self._wrap(raw, name, size)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, key, new)
                            self._undo.append((mod, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write every span as CSV, preceded by ``# key=value`` header lines."""
        with open(path, "w", newline="") as fh:
            for key, val in header.items():
                fh.write(f"# {key}={val}\n")
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end", "run_id", "arg"])
            for sid, parent, name, t0, t1, run_id, arg in self.spans:
                out.writerow([sid, parent, name, repr(t0), repr(t1), run_id,
                              "" if arg is None else arg])
