"""Experiment runner: schema-validated flat-text configs, deterministic
artifacts (scores, summary, memory snapshot, trained model, hash manifest),
result reports, and activation-profile and 2-D PCA dumps of a trained model.

Exit codes: 0 success, 2 config error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import dataclass, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .continual import (HEADS, ConfigError, ScoreMatrix, Trainer, TrainerConfig,
                        average_accuracy, average_forgetting, check_memory_budget, run_stream)
from .fskdcp import save_memory
from .kanheads import DgkdHead, activation_profile, add_task_layer
from .numcore import ContractViolation, check_finite
from .synthbench import LAYOUTS, PROTOCOLS, TaskStream, dataset, gen_sequence

CONFIG_FORMAT_VERSION = 1
SUMMARY_SCHEMA_VERSION = 1
MODEL_HEADER = "dgkan_model,version=1"


@dataclass
class ExperimentConfig(TrainerConfig):
    """A run's trainer knobs plus the stream it trains on; with every field
    at its default this is the reference run."""

    protocol: str = "four-task"
    seed: int = 11
    train_samples: int = 1024
    eval_samples: int = 512


def _parse_bool(raw: str) -> bool:
    words = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
    if raw.lower() not in words:
        raise ValueError(f"not a boolean: {raw!r}")
    return words[raw.lower()]


# field type name -> (parse a value's text, write a value's text)
_CODECS = {"bool": (_parse_bool, lambda v: "true" if v else "false"),
           "int": (int, str), "float": (float, repr), "str": (str, str)}


def _parse_typed(name: str, raw: str, typ: str):
    try:
        return _CODECS[typ][0](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"config field {name!r}: {exc}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format, validating against the schema.
    Each field, ``config_version`` included, may be given once."""
    schema = {f.name: f.type for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig()
    seen: dict[str, int] = {}            # field -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"config line {lineno}: field {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        if key == "config_version":
            if _parse_typed(key, val, "int") != CONFIG_FORMAT_VERSION:
                raise ConfigError(f"unsupported config_version {val}")
            continue
        if key not in schema:
            raise ConfigError(f"config line {lineno}: unknown field {key!r}")
        setattr(cfg, key, _parse_typed(key, val, schema[key]))
    if "config_version" not in seen:
        raise ConfigError("config missing required 'config_version' header")
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError (exit code 2) for a field that breaks a
    ``TrainerConfig.validate`` rule, which checks every field's type, or a value
    that breaks the experiment's own: a known protocol, seed >= 0, and a stream
    the run can build and finish (``d_x`` a multiple of 8, both classes in
    every split, a memory row per domain-class)."""
    if cfg.protocol not in PROTOCOLS:
        raise ConfigError(f"config field 'protocol': must be one of {PROTOCOLS}, got {cfg.protocol!r}")
    cfg.validate()
    if cfg.seed < 0:
        raise ConfigError("config field 'seed': must be >= 0")
    if cfg.d_x % 8 != 0:
        raise ConfigError("config field 'd_x': protocol geometry requires a multiple of 8")
    for name in ("train_samples", "eval_samples"):
        if getattr(cfg, name) < 2:
            raise ConfigError(f"config field {name!r}: must be >= 2, so that both classes occur")
    check_memory_budget(cfg.memory_budget, LAYOUTS[cfg.protocol][0])


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Canonical text: version header, then each field sorted and written by its declared type."""
    return [f"config_version = {CONFIG_FORMAT_VERSION}"] + [
        f"{f.name} = {_CODECS[f.type][1](getattr(cfg, f.name))}"
        for f in sorted(fields(ExperimentConfig), key=lambda f: f.name)]


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256("\n".join(config_lines(cfg)).encode()).hexdigest()


def trainer_config(cfg: ExperimentConfig) -> TrainerConfig:
    """The trainer's fields of an experiment config."""
    return TrainerConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainerConfig)})


def build_stream(cfg: ExperimentConfig) -> TaskStream:
    return gen_sequence(cfg.protocol, cfg.seed, d_x=cfg.d_x,
                        train_n=cfg.train_samples, eval_n=cfg.eval_samples)


def scores_csv_text(matrix: ScoreMatrix) -> str:
    lines = ["train_step,eval_task,acc,auc"]
    for i in range(1, matrix.num_steps + 1):
        for j in range(1, i + 1):
            lines.append(f"{i},{j},{matrix.entry(i, j, 'acc')!r},{matrix.entry(i, j, 'auc')!r}")
    return "\n".join(lines) + "\n"


def parse_scores_csv(text: str) -> ScoreMatrix:
    """Read the grid ``scores_csv_text`` writes.  A bad line raises naming
    its number, and a missing cell (i, j), 1 <= j <= i, naming the cell."""
    lines = [(n, l) for n, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines or lines[0][1] != "train_step,eval_task,acc,auc":
        raise ContractViolation("malformed scores CSV header")
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    for n, line in lines[1:]:
        try:
            i_s, j_s, a_s, u_s = line.split(",")
            i, j, cell = int(i_s), int(j_s), (float(a_s), float(u_s))
        except ValueError:
            raise ContractViolation(f"scores CSV line {n}: expected four numbers "
                                    f"train_step,eval_task,acc,auc, got {line!r}") from None
        if not 1 <= j <= i or (i, j) in cells:
            raise ContractViolation(f"scores CSV line {n}: cell ({i}, {j}) is "
                                    f"{'repeated' if (i, j) in cells else 'not in the grid'}")
        cells[(i, j)] = cell
    matrix = ScoreMatrix()
    for i in range(1, max((i for i, _ in cells), default=0) + 1):
        missing = [j for j in range(1, i + 1) if (i, j) not in cells]
        if missing:
            raise ContractViolation(f"scores CSV lacks cell ({i}, {missing[0]})")
        matrix.add_row([cells[(i, j)][0] for j in range(1, i + 1)],
                       [cells[(i, j)][1] for j in range(1, i + 1)])
    return matrix


def summary_steps(matrix: ScoreMatrix) -> list[dict]:
    """AA and AF, by accuracy and by AUC, after each training step (AF from step 2)."""
    return [{"task": t,
             "aa_acc": average_accuracy(matrix, t, "acc"),
             "aa_auc": average_accuracy(matrix, t, "auc"),
             "af_acc": average_forgetting(matrix, t, "acc") if t >= 2 else None,
             "af_auc": average_forgetting(matrix, t, "auc") if t >= 2 else None}
            for t in range(1, matrix.num_steps + 1)]


def summary_dict(matrix: ScoreMatrix, cfg: ExperimentConfig) -> dict:
    return {"schema_version": SUMMARY_SCHEMA_VERSION, "protocol": cfg.protocol,
            "seed": cfg.seed, "head": cfg.head, "steps": summary_steps(matrix)}


def summary_text(matrix: ScoreMatrix, cfg: ExperimentConfig) -> str:
    """The bytes of ``summary.json``."""
    return json.dumps(summary_dict(matrix, cfg), indent=2, sort_keys=True) + "\n"


def _read_utf8(path: Path) -> str:
    """The text of ``path``, decoded as UTF-8; a byte that is not UTF-8
    raises ContractViolation naming the file and the byte's offset."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ContractViolation(f"{path}: byte {exc.start} ({data[exc.start]:#04x}) is not "
                                f"UTF-8, on line {line}") from None


def _sha256_file(path: Path) -> str:
    """Digest of an artifact's bytes.  Every artifact a run writes is UTF-8
    text, so the file is read through ``_read_utf8`` (re-encoding gives its
    bytes back) and one that is not UTF-8 is named."""
    return hashlib.sha256(_read_utf8(path).encode()).hexdigest()


def _write_manifest(out: Path, manifest: dict, written: list[str]) -> None:
    """Hash exactly the artifacts this run wrote (never other files in
    ``out``), then write the manifest next to them."""
    manifest["artifacts"] = {name: _sha256_file(out / name) for name in written}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _model_modules(extractor, head) -> dict:
    """Each parameter vector's line name and module, in the file's order."""
    layers = ({f"layer{k}": layer for k, layer in enumerate(head.layers, start=1)}
              if isinstance(head, DgkdHead) else {"head": head})
    return {"extractor": extractor, **layers}


def model_text(extractor, head) -> str:
    """The bytes of ``model_final.csv``: the header, then one line per
    parameter vector, its name and its ``params`` as exact float reprs."""
    return "\n".join([MODEL_HEADER] + [
        ",".join([name, *map(repr, module.params.tolist())])
        for name, module in _model_modules(extractor, head).items()]) + "\n"


def run_experiment(cfg: ExperimentConfig, out_dir) -> ScoreMatrix:
    """Validate ``cfg``, then train through the configured stream and write
    all artifacts.  A config that ``validate_config`` rejects writes nothing.

    On a mid-run failure the partial artifacts stay on disk next to a
    manifest with status=failed and the error message.
    """
    validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def write(name: str, text: str) -> None:
        (out / name).write_text(text)
        written.append(name)

    write("config_resolved.txt", "\n".join(config_lines(cfg)) + "\n")
    manifest = {"schema_version": SUMMARY_SCHEMA_VERSION, "config_hash": config_hash(cfg),
                "seed": cfg.seed, "status": "running", "artifacts": {}}
    try:
        stream = build_stream(cfg)
        matrix, trainer = run_stream(stream, trainer_config(cfg))
        write("scores.csv", scores_csv_text(matrix))
        write("summary.json", summary_text(matrix, cfg))
        if trainer.memory is not None:
            save_memory(trainer.memory, out / "memory_final.csv")
            written.append("memory_final.csv")
        write("model_final.csv", model_text(trainer.extractor, trainer.head))
        manifest["status"] = "complete"
    except Exception as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _write_manifest(out, manifest, written)
        raise
    _write_manifest(out, manifest, written)
    return matrix


def load_model(results_dir):
    """The trained extractor and head in a run directory's ``model_final.csv``.
    A fresh ``Trainer`` of the stored config gives their shapes, and a DG-KD
    head one layer per task, every layer but the last frozen.  ContractViolation
    names the first line out of place (the header, a vector's name, the end of
    the file), else the line of the first vector that does not fit its module
    or that the module does not hold bit for bit once loaded (a width below
    the floor ``DgLayer`` clamps to), else the first of the two files read
    whose bytes differ from its digest in ``manifest.json``."""
    out = Path(results_dir)
    cfg = _run_config(out, "model_final.csv")
    trainer = Trainer(trainer_config(cfg), cfg.seed)
    for _ in range(LAYOUTS[cfg.protocol][0] if cfg.head == "dgkd" else 0):
        # a placeholder layer per task, each overwritten from the file below
        add_task_layer(trainer.head, np.zeros((1, cfg.d_f)), trainer.rng)
    modules = _model_modules(trainer.extractor, trainer.head)
    path = out / "model_final.csv"
    lines = _read_utf8(path).removesuffix("\n").split("\n")
    starts = lines[:1] + [line.partition(",")[0] for line in lines[1:]]
    for n, (got, want) in enumerate(zip_longest(starts, [MODEL_HEADER, *modules]), start=1):
        if got != want:
            show = lambda start: "<end of file>" if start is None else repr(start[:40])
            raise ContractViolation(f"{path} line {n}: expected {show(want)}, got {show(got)}")
    for n, (line, (name, module)) in enumerate(zip(lines[1:], modules.items()), start=2):
        try:   # a ContractViolation is a ValueError too
            vec = check_finite(np.array([float(v) for v in line.split(",")[1:]]), name)
            module.set_param_vector(vec)
            changed = np.flatnonzero(module.params.view(np.int64) != vec.view(np.int64))
            if changed.size:
                i = changed[0]
                raise ContractViolation(f"{name} entry {i} is {float(vec[i])!r} but loads as "
                                        f"{float(module.params[i])!r}")
        except ValueError as exc:
            raise ContractViolation(f"{path} line {n}: {exc}") from None
    _check_digests(out, ("config_resolved.txt", "model_final.csv"))
    return trainer.extractor, trainer.head


def pca_2d(features: np.ndarray) -> np.ndarray:
    """The rows projected onto their top-2 principal directions, signs fixed.

    Each component is flipped so its largest-magnitude loading is positive,
    making the projection deterministic across platforms.
    """
    F = np.asarray(features, dtype=np.float64)
    if F.shape[1] < 2:
        raise ContractViolation("PCA dump needs at least 2 feature dimensions")
    centered = F - F.mean(axis=0)
    cov = centered.T @ centered / max(F.shape[0] - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:2]
    comps = evecs[:, order].T
    for k in range(2):
        j = int(np.argmax(np.abs(comps[k])))
        if comps[k, j] < 0:
            comps[k] = -comps[k]
    return centered @ comps.T


def dump_embeddings(extractor, stream: TaskStream, path) -> int:
    """Write each task's eval features under ``extractor``, projected onto their top-2 PCs."""
    feats, doms, labs = [], [], []
    for t in range(len(stream)):
        Xe, ye = dataset(stream, t, "eval")
        feats.append(extractor.forward(Xe))
        doms.append(np.full(len(ye), t))
        labs.append(ye)
    F = np.vstack(feats)
    proj = pca_2d(F)
    dom = np.concatenate(doms)
    lab = np.concatenate(labs)
    lines = ["pc1,pc2,domain,label,split"]
    for i in range(F.shape[0]):
        lines.append(f"{float(proj[i, 0])!r},{float(proj[i, 1])!r},{int(dom[i])},{int(lab[i])},eval")
    Path(path).write_text("\n".join(lines) + "\n")
    return F.shape[0]


def dump_profile(head: DgkdHead, path, group_index: int, x_min: float, x_max: float,
                 points: int) -> None:
    """Write the composite activation scan of one group as CSV."""
    if not isinstance(head, DgkdHead):
        raise ContractViolation("activation profiles are defined for the dgkd head only")
    xs = np.linspace(x_min, x_max, points)
    vals = activation_profile(head, group_index, xs)
    lines = ["x,value,task_count"]
    for x, v in zip(xs, vals):
        lines.append(f"{float(x)!r},{float(v)!r},{head.active_task}")
    Path(path).write_text("\n".join(lines) + "\n")


def _require_artifacts(out: Path, *names: str) -> None:
    """Raise ContractViolation listing each of ``names`` that is not a file in ``out``."""
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        raise ContractViolation(f"missing artifacts in {out}: {', '.join(missing)}")


def _run_config(out: Path, *artifacts: str) -> ExperimentConfig:
    """The stored config of run directory ``out``, once it and ``artifacts`` are there."""
    _require_artifacts(out, "config_resolved.txt", *artifacts)
    return parse_config_text(_read_utf8(out / "config_resolved.txt"))


def _require_lines(path: Path, derived: str, source: str) -> None:
    """Raise ContractViolation at the first line where the file ``path``
    differs from the text ``derived``, naming the stored line and the one
    ``source`` (a subject and its verb) gives."""
    # a byte that is not UTF-8 decodes to U+FFFD, which the ASCII artifacts never hold
    stored = path.read_bytes().decode(errors="replace").split("\n")
    for n, (got, want) in enumerate(zip_longest(stored, derived.split("\n")), start=1):
        if got != want:
            show = lambda line: "<end of file>" if line is None else repr(line)
            raise ContractViolation(f"{path} line {n} is {show(got)}; {source} {show(want)}")


def report(results_dir) -> str:
    """Render the AA/AF table of a results directory.

    The header comes from ``config_resolved.txt`` and every column from the
    score CSV.  ``summary.json`` must hold exactly the bytes these two give;
    otherwise ContractViolation names its first differing line.  Missing
    artifacts are listed explicitly.
    """
    out = Path(results_dir)
    cfg = _run_config(out, "scores.csv", "summary.json")
    matrix = parse_scores_csv(_read_utf8(out / "scores.csv"))
    _require_lines(out / "summary.json", summary_text(matrix, cfg),
                   "scores.csv and config_resolved.txt give")
    fmt = lambda v: "-" if v is None else f"{v:.2f}"
    lines = [
        f"Results for protocol={cfg.protocol} seed={cfg.seed} head={cfg.head}",
        "",
        "| task | AA (acc) | AF (acc) | AA (auc) | AF (auc) |",
        "|------|----------|----------|----------|----------|",
    ]
    for step in summary_steps(matrix):
        lines.append(f"| {step['task']} | {fmt(step['aa_acc'])} | {fmt(step['af_acc'])} "
                     f"| {fmt(step['aa_auc'])} | {fmt(step['af_auc'])} |")
    return "\n".join(lines)


def _check_digests(out: Path, names=None) -> None:
    """Check files of run directory ``out`` against the digests its
    ``manifest.json`` lists: ``names``, by default every listed artifact.
    ContractViolation names a missing or malformed manifest, a listed name
    that is not a plain file name, a missing file, one the manifest does not
    list, and the first whose bytes differ from its digest."""
    manifest = out / "manifest.json"
    _require_artifacts(out, "manifest.json")
    try:
        stored = json.loads(_read_utf8(manifest))
    except ValueError as exc:
        raise ContractViolation(f"{manifest} is not valid JSON: {exc}") from None
    if not isinstance(stored, dict):
        raise ContractViolation(f"{manifest} must hold a JSON object, got {type(stored).__name__}")
    if "artifacts" not in stored:
        raise ContractViolation(f"{manifest} lacks the field 'artifacts'")
    listed = stored["artifacts"]
    if not isinstance(listed, dict):
        raise ContractViolation(f"{manifest}: field 'artifacts' must be a dict, "
                                f"got {type(listed).__name__}")
    for name in listed:
        if name in ("", "..") or Path(name).name != name:
            raise ContractViolation(f"{manifest} lists {name!r}, which is not a file name in {out}")
    names = list(listed) if names is None else names
    _require_artifacts(out, *names)
    for name in names:
        if name not in listed:
            raise ContractViolation(f"{manifest} does not list {out / name}")
        if _sha256_file(out / name) != listed[name]:
            raise ContractViolation(f"{out / name} does not match its digest in {manifest}")


def verify(results_dir) -> None:
    """Check each stored artifact against its manifest digest, then re-run
    from the stored config: the re-run must write the manifest's bytes.
    ContractViolation names the first artifact whose digest differs (before
    any re-run), the first manifest line that differs, and a stored file
    that is not UTF-8 text."""
    out = Path(results_dir)
    cfg = _run_config(out, "manifest.json")
    _check_digests(out)
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(cfg, tmp)
        _require_lines(out / "manifest.json", (Path(tmp) / "manifest.json").read_text(),
                       "the re-run writes")


# -- command line --------------------------------------------------------------


def _load_cfg(args) -> ExperimentConfig:
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config: cannot read {args.config!r}: {exc}") from None
        cfg = parse_config_text(text)
    else:
        cfg = ExperimentConfig()
    for name in ("seed", "head", "protocol"):
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if args.ablate:
        for name in args.ablate.split(","):
            name = name.strip()
            if name not in ("sc", "kd", "kdcp"):
                raise ConfigError(f"--ablate: unknown component {name!r}")
            setattr(cfg, f"use_{name}", False)
    if args.replay_raw:
        cfg.use_raw_replay = True
    validate_config(cfg)
    return cfg


def _run(args) -> str:
    cfg = _load_cfg(args)
    # the nearest existing path up from --out must be a directory
    found = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"--out: {str(found)!r} exists and is not a directory")
    run_experiment(cfg, args.out)
    return f"run complete: artifacts in {args.out}"


def _check_dump_out(dest: Path) -> None:
    """Reject a dump's --out that is a directory or lies in no directory."""
    if not dest.parent.exists():
        raise ConfigError(f"--out: directory {str(dest.parent)!r} does not exist")
    if not dest.parent.is_dir():
        raise ConfigError(f"--out: {str(dest.parent)!r} is not a directory")
    if dest.is_dir():
        raise ConfigError(f"--out: {str(dest)!r} is a directory")


def _dump_profile(args) -> str:
    cfg = _run_config(Path(args.dir))
    # reject a profile request the stored model cannot answer, before reading it
    if cfg.head != "dgkd":
        raise ConfigError(f"dump-profile: activation profiles need the dgkd head, got {cfg.head!r}")
    if not 0 <= args.group < cfg.groups:
        raise ConfigError(f"--group: must be in [0, {cfg.groups}), got {args.group}")
    if args.points < 1:
        raise ConfigError(f"--points: must be at least 1, got {args.points}")
    for flag, x in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if not math.isfinite(x):
            raise ConfigError(f"{flag}: must be finite, got {x}")
    _check_dump_out(Path(args.out))
    dump_profile(load_model(args.dir)[1], args.out, args.group, args.x_min, args.x_max, args.points)
    return f"profile written to {args.out}"


def _dump_embeddings(args) -> str:
    cfg = _run_config(Path(args.dir))
    if cfg.d_f < 2:
        raise ConfigError(f"dump-embeddings: the 2-D PCA dump needs d_f >= 2, got {cfg.d_f}")
    _check_dump_out(Path(args.out))
    n = dump_embeddings(load_model(args.dir)[0], build_stream(cfg), args.out)
    return f"{n} embedding rows written to {args.out}"


def _verify(args) -> str:
    verify(args.dir)
    return "verification OK: artifacts reproduce byte-identically"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dgkan", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help, *required):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)      # handler(args) returns the text to print
        for option in required:
            p.add_argument(option, required=True)
        return p

    p_run = verb("run", _run, "run an experiment and write artifacts")
    p_run.add_argument("--config", help="path to a flat key = value config file")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--head", choices=HEADS)
    p_run.add_argument("--protocol", choices=list(PROTOCOLS))
    p_run.add_argument("--ablate", help="comma list from {sc, kd, kdcp} to switch off")
    p_run.add_argument("--replay-raw", action="store_true", dest="replay_raw")
    p_run.add_argument("--out", required=True, help="output directory")
    verb("report", lambda args: report(args.dir), "render AA/AF tables from a results directory",
         "--dir")
    p_prof = verb("dump-profile", _dump_profile, "write an activation-profile CSV", "--dir", "--out")
    p_prof.add_argument("--group", type=int, default=0)
    p_prof.add_argument("--x-min", type=float, default=-3.0)
    p_prof.add_argument("--x-max", type=float, default=3.0)
    p_prof.add_argument("--points", type=int, default=201)
    verb("dump-embeddings", _dump_embeddings, "write a 2-D PCA embedding CSV", "--dir", "--out")
    verb("verify", _verify, "re-run a results directory and compare hashes", "--dir")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        print(args.handler(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
