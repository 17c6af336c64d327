"""The counterexample corpus: machine-found violations, frozen forever.

Every violation the falsifier finds can be emitted as a corpus entry --
one directory under ``tests/corpus/`` containing

* ``spec.json`` -- the fully-literal ``platoonsec-experiment/1`` spec of
  the violating schedule (replayable by ``platoonsec experiment`` too),
* ``manifest.json`` -- a ``platoonsec-counterexample/1`` document: the
  complete scenario config, the observed violation, and the search
  provenance (root seed, budget, episodes spent),
* ``trace.jsonl`` -- the schema-versioned episode trace recorded at
  emission time.

:func:`replay_counterexample` rebuilds the episode from spec + manifest
alone and re-runs it under any kernel; the trace *body* must match the
committed one byte-for-byte and the violation must reproduce.  The
pytest suite in ``tests/corpus/`` (marker ``corpus``) replays every
committed entry through both kernels, which makes the corpus the
canonical attack regression suite the paper says the field is missing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.experiment import ExperimentSpec, load_experiment_spec
from repro.core.scenario import ScenarioConfig, run_episode
from repro.falsify.objective import SafetyVerdict, assess
from repro.obs.trace import trace_body_bytes

#: Manifest format tag; bump on incompatible schema changes.
CORPUS_FORMAT = "platoonsec-counterexample/1"

#: Default corpus location, relative to the repo root.
DEFAULT_CORPUS_DIR = Path("tests") / "corpus"

SPEC_FILE = "spec.json"
MANIFEST_FILE = "manifest.json"
TRACE_FILE = "trace.jsonl"


def config_to_dict(config: ScenarioConfig) -> dict:
    """The *complete* plain-JSON view of a scenario config.

    Unlike :meth:`ScenarioConfig.canonical_dict` nothing is stripped:
    replay needs every field (the fading mode included) exactly as the
    search ran it.  The kernel is recorded for provenance but replay
    overrides it per leg.
    """
    return json.loads(json.dumps(dataclasses.asdict(config)))


@dataclass(frozen=True)
class CorpusEntry:
    """One committed counterexample directory."""

    path: Path
    manifest: dict

    @property
    def name(self) -> str:
        return str(self.manifest.get("name", self.path.name))

    @property
    def spec_path(self) -> Path:
        return self.path / SPEC_FILE

    @property
    def trace_path(self) -> Path:
        return self.path / TRACE_FILE

    def load_spec(self) -> ExperimentSpec:
        return load_experiment_spec(self.spec_path)

    def load_config(self) -> ScenarioConfig:
        return ScenarioConfig(**self.manifest["config"])


@dataclass
class ReplayReport:
    """Outcome of replaying one corpus entry under one kernel."""

    entry: CorpusEntry
    kernel: str
    verdict: SafetyVerdict
    trace_matches: bool
    divergence: Optional[str] = None
    # False only when the manifest committed a detection ledger and the
    # replay's ledger differs; pre-detection manifests vacuously match.
    detection_matches: bool = True

    @property
    def ok(self) -> bool:
        return (self.trace_matches and self.detection_matches
                and self.verdict.violated)


def _build_episode(spec: ExperimentSpec, config: ScenarioConfig):
    """(config, attacks, defenses, hooks) for one corpus episode."""
    experiment = spec.build(config)
    return (experiment.config, experiment.make_attacks(),
            spec.build_defenses(config), experiment.hooks)


def _run_traced(spec: ExperimentSpec, config: ScenarioConfig,
                trace_path: Path, name: str):
    cfg, attacks, defenses, hooks = _build_episode(spec, config)
    return run_episode(cfg, attacks=attacks, defenses=defenses,
                       setup_hooks=hooks, trace_path=trace_path,
                       trace_meta={"spec_key": name})


def write_counterexample(corpus_dir: Union[str, Path],
                         spec: ExperimentSpec, config: ScenarioConfig, *,
                         provenance: Optional[dict] = None,
                         name: Optional[str] = None) -> CorpusEntry:
    """Freeze one violating spec as a corpus entry (spec + manifest +
    trace).

    The episode is re-run once with tracing on; if it does **not**
    violate safety, ``ValueError`` is raised -- the corpus only accepts
    real counterexamples.
    """
    spec_dict = spec.to_dict()
    blob = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    entry_name = name or f"{spec.threat}-{digest}"
    path = Path(corpus_dir) / entry_name
    path.mkdir(parents=True, exist_ok=True)

    result = _run_traced(spec, config, path / TRACE_FILE, entry_name)
    verdict = assess(dataclasses.asdict(result.metrics))
    if not verdict.violated:
        (path / TRACE_FILE).unlink(missing_ok=True)
        raise ValueError(
            f"refusing to commit {entry_name!r}: the episode is safe "
            f"({verdict.describe()}) -- not a counterexample")

    manifest = {
        "format": CORPUS_FORMAT,
        "name": entry_name,
        "config": config_to_dict(config),
        "violation": {
            "collision_count": verdict.collision_count,
            "min_true_gap": verdict.min_true_gap,
            "min_brake_margin": verdict.min_brake_margin,
            "severity": verdict.severity,
        },
        "provenance": dict(provenance or {}),
        # The emission episode's full detection-ledger summary: replay
        # re-derives it and must reproduce it bit-identically.
        "detection": json.loads(json.dumps(result.detection)),
        "files": {"spec": SPEC_FILE, "trace": TRACE_FILE},
    }
    (path / SPEC_FILE).write_text(json.dumps(spec_dict, indent=2) + "\n")
    (path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n")
    return CorpusEntry(path=path, manifest=manifest)


def iter_corpus(corpus_dir: Union[str, Path, None] = None) -> list:
    """Every committed corpus entry, sorted by name; [] when absent."""
    root = Path(corpus_dir) if corpus_dir is not None else DEFAULT_CORPUS_DIR
    if not root.is_dir():
        return []
    entries = []
    for manifest_path in sorted(root.glob(f"*/{MANIFEST_FILE}")):
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != CORPUS_FORMAT:
            raise ValueError(
                f"{manifest_path}: unsupported corpus format "
                f"{manifest.get('format')!r}; expected {CORPUS_FORMAT!r}")
        entries.append(CorpusEntry(path=manifest_path.parent,
                                   manifest=manifest))
    return entries


def replay_counterexample(entry: CorpusEntry, *, kernel: str = "scalar",
                          work_dir: Union[str, Path, None] = None
                          ) -> ReplayReport:
    """Re-run one corpus entry under ``kernel`` and check it reproduces.

    The episode is rebuilt from the committed spec + manifest config
    alone.  The fresh trace body must equal the committed one
    byte-for-byte (kernels are trace-equivalent by construction) and the
    safety violation must reappear.
    """
    spec = entry.load_spec()
    config = entry.load_config().with_overrides(kernel=kernel)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        trace_path = Path(tmp) / f"{entry.name}-{kernel}.trace.jsonl"
        result = _run_traced(spec, config, trace_path, entry.name)
        fresh = trace_body_bytes(trace_path)
        committed = trace_body_bytes(entry.trace_path)
        divergence = None
        if fresh != committed:
            from repro.analysis.tracediff import diff_traces

            divergence = diff_traces(entry.trace_path, trace_path).format()
    verdict = assess(dataclasses.asdict(result.metrics))
    detection_matches = True
    committed_detection = entry.manifest.get("detection")
    if committed_detection is not None:
        fresh_detection = json.loads(json.dumps(result.detection))
        detection_matches = fresh_detection == committed_detection
        if not detection_matches and divergence is None:
            divergence = ("detection ledger diverged from the committed "
                          "manifest (same trace bytes would have caught "
                          "record-level drift; this is summary-level)")
    return ReplayReport(entry=entry, kernel=kernel, verdict=verdict,
                        trace_matches=fresh == committed,
                        divergence=divergence,
                        detection_matches=detection_matches)
