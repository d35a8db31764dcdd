"""Spans and per-layer counters around the calls into ``oraclediag``.

The tracer replaces functions where they are looked up: in every loaded
``oraclediag`` module whose namespace holds the same function object
(``experiments`` imports ``run_generic`` by name, ``diagonal`` imports
``measure`` and the normalizers the same way), and on the ``Schedule``
class for its methods.  ``uninstall`` puts every original back.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent span, question id),
  for the coarse boundaries called a few times per question;
* hot: count, total and self time per (call, parent frame), kept in
  memory, for the calls made up to about a million times per question;
* count: call count only, for the schedule and numbering helpers.

Self time is a frame's duration minus the time of the traced frames it
called.  Work counts that need arguments or results (members normalized,
interpreter instances, escape transcripts, tables enumerated) are taken by
hooks on the same wrappers.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = Path(__file__).with_name("layers.json")
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

SPAN, HOT, COUNT = "span", "hot", "count"


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


# -- hooks: (tracer, args, kwargs, result) -> None ----------------------------


def _vm_instance(coins_index):
    def hook(tr, args, kwargs, result):
        prog, N, inputs = args[0], args[1], args[coins_index - 1]
        tr.instances.add((prog.name, N, tuple(inputs), _arg(args, kwargs, coins_index, "coins", "")))

    return hook


def _success_vector(tr, args, kwargs, result):
    if _arg(args, kwargs, 3, "method", "fast") == "fast":
        tr.work["experiments.fast_encodings"] += len(result)


def _escape(tr, args, kwargs, transcript):
    tr.work["diagonal.levels"] += len(transcript.steps)
    tr.work["diagonal.candidates_tried"] += sum(s.chosen_index + 1 for s in transcript.steps)
    for step in transcript.steps:
        if step.precision is not None:
            tr.precision_max = max(tr.precision_max, step.precision)


def _testfamily(tr, args, kwargs, result):
    tr.work["diagonal.testfamily_members"] += len(result)


def _pipeline(tr, args, kwargs, report):
    tr.work["pipeline.materialized_members"] += sum(report.materialized.values())


def _bad_tables(tr, args, kwargs, result):
    oracle, n = args[0], _arg(args, kwargs, 2, "n")
    tr.work["rom.tables_enumerated"] += tr.od.rom.table_count(oracle.query_depth(n), oracle.ell(n))
    tr.work["rom.bad_tables"] += len(result)


def _strings(tr, args, kwargs, result):
    tr.work["rom.strings_materialized"] += len(result)


def _members_in(tr, args, kwargs):
    members = args[0]
    if not hasattr(members, "__len__"):
        members = tuple(members)  # _normalize iterates its argument once
    tr.work["cylinder.normalize_members_in"] += len(members)
    return (members, *args[1:]), kwargs


@dataclass(frozen=True)
class Target:
    module: str  # module under oraclediag
    attr: str
    kind: str
    name: str = ""
    after: Callable | None = None
    before: Callable | None = None
    owner: str | None = None  # class name for methods

    @property
    def label(self) -> str:
        return self.name or f"{self.module}.{self.attr}"


TARGETS = (
    Target("cli", "main", SPAN),
    Target("experiments", "dlog_success_ggm", SPAN),
    Target("experiments", "cdh_success_ggm", SPAN),
    Target("experiments", "shoup_audit", SPAN),
    Target("experiments", "success_vector", SPAN, after=_success_vector),
    Target("experiments", "_success_over_instances", HOT),
    Target("vm", "run_generic", HOT, after=_vm_instance(4)),
    Target("vm", "run_symbolic", HOT, after=_vm_instance(3)),
    Target("pipeline", "run_pipeline", SPAN, after=_pipeline),
    Target("diagonal", "escape_binary", SPAN, after=_escape),
    Target("diagonal", "escape_family", SPAN, after=_escape),
    Target("diagonal", "assemble_open_set", SPAN),
    Target("diagonal", "build_ggm_testfamily", SPAN, after=_testfamily),
    Target("diagonal", "verify_escape", SPAN),
    Target("diagonal", "conditional_measure_exact", HOT),
    Target("diagonal", "conditional_measure_approx", HOT),
    Target("diagonal", "_stage_for", HOT),
    Target("rom", "bad_tables_for", SPAN, after=_bad_tables),
    Target("rom", "build_constraint_patterns", SPAN),
    Target("rom", "build_constraint_strings", SPAN, after=_strings),
    Target("rom", "pattern_set_measure", SPAN),
    Target("rom", "rom_testset_measure", SPAN),
    Target("fdh", "sigforge_toy", HOT),
    Target("cylinder", "all_encodings", SPAN),
    Target("cylinder", "parse_binary_set", SPAN),
    Target("cylinder", "parse_family_set", SPAN),
    Target("cylinder", "_normalize", HOT, name="cylinder.normalize", before=_members_in),
    Target("cylinder", "measure", HOT),
    Target("cylinder", "binary_measure", HOT),
    Target("cylinder", "family_measure", HOT),
    Target("schedules", "f", COUNT, name="schedules.Schedule.f", owner="Schedule"),
    Target("schedules", "g", COUNT, name="schedules.Schedule.g", owner="Schedule"),
)

# modules whose every function is counted, and builders timed as one layer
COUNTED_MODULES = ("schedules", "numbering")
PROGRAM_BUILDERS = "programs"
MEASURES = ("cylinder.measure", "cylinder.binary_measure", "cylinder.family_measure")


class Tracer:
    """Installs wrappers into a loaded ``oraclediag`` and collects timings."""

    def __init__(self, od):
        self.od = od
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, qid, self)
        self.hot: dict[tuple[str, str], list[float]] = {}  # -> [count, total, self]
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.instances: set = set()
        self.instances_total = 0
        self.precision_max = 0
        self.qid: str | None = None
        self._stack: list[list] = []  # [name, child seconds, span id or None]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _targets(self):
        yield from TARGETS
        for mod in COUNTED_MODULES:
            module = sys.modules[f"oraclediag.{mod}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield Target(mod, attr, COUNT, name=f"{mod}.{attr}")
        module = sys.modules[f"oraclediag.{PROGRAM_BUILDERS}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                yield Target(PROGRAM_BUILDERS, attr, HOT)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "oraclediag" or k.startswith("oraclediag.")]
        for target in self._targets():
            module = sys.modules[f"oraclediag.{target.module}"]
            if target.owner:
                owner = getattr(module, target.owner)
                original = owner.__dict__[target.attr]
                self._patch(owner, target.attr, self._wrap(original, target))
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        label, kind, before, after = target.label, target.kind, target.before, target.after
        counts, stack, clock = self.counts, self._stack, time.perf_counter

        if kind == COUNT:
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            parent = stack[-1] if stack else None
            frame = [label, 0.0, None]
            if kind == SPAN:
                frame[2] = len(self.spans)
                self.spans.append(None)  # reserve the id in call order
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                self._record(frame, parent, start, end)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _record(self, frame, parent, start, end) -> None:
        label, child, span_id = frame
        self_time = end - start - child
        if span_id is not None:
            parent_id = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            self.spans[span_id] = (span_id, label, start, end, parent_id, self.qid, self_time)
            return
        key = (label, parent[0] if parent else "")
        entry = self.hot.get(key)
        if entry is None:
            self.hot[key] = [1, end - start, self_time]
        else:
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_time

    @contextmanager
    def question(self, qid: str):
        """Span for one question; interpreter instances are distinct per question."""
        self.qid = qid
        frame = ["bench.question", 0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(frame, None, start, end)
            self.instances_total += len(self.instances)
            self.instances.clear()
            self.qid = None

    # -- summaries ------------------------------------------------------------

    def frames(self):
        """(name, parent, count, total, self) over spans and hot aggregates."""
        parents = {s[0]: s[1] for s in self.spans}
        agg: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, parent_id, qid, self_time in self.spans:
            entry = agg[(name, parents.get(parent_id, ""))]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_time
        for key, (n, total, self_time) in self.hot.items():
            entry = agg[key]
            entry[0] += n
            entry[1] += total
            entry[2] += self_time
        return [(name, parent, *vals) for (name, parent), vals in agg.items()]

    def self_by_module(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _, _, _, self_time in self.frames():
            out[name.split(".", 1)[0]] += self_time
        return dict(out)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        frames = self.frames()

        def calls(*names, outer=None):
            return sum(n for name, parent, n, _, _ in frames if name in names and parent not in (outer or ()))

        def seconds(*names, outer=None):
            return sum(t for name, parent, _, t, _ in frames if name in names and parent not in (outer or ()))

        selfs = self.self_by_module()
        runs = calls("vm.run_generic", "vm.run_symbolic")
        w = self.work
        builders = [name for name, *_ in frames if name.startswith(f"{PROGRAM_BUILDERS}.")]
        return {
            "vm.run_generic_calls": calls("vm.run_generic"),
            "vm.run_generic_s": seconds("vm.run_generic"),
            "vm.run_symbolic_calls": calls("vm.run_symbolic"),
            "vm.run_symbolic_s": seconds("vm.run_symbolic"),
            "vm.runs_per_instance": runs / self.instances_total if self.instances_total else 0.0,
            "experiments.encodings_evaluated": calls("experiments._success_over_instances")
            + w["experiments.fast_encodings"],
            "experiments.self_s": selfs.get("experiments", 0.0),
            "experiments.success_vector_calls": calls("experiments.success_vector"),
            "experiments.success_vector_s": seconds("experiments.success_vector"),
            "experiments.audit_s": seconds("experiments.shoup_audit"),
            "cylinder.all_encodings_s": seconds("cylinder.all_encodings"),
            "cylinder.normalize_calls": calls("cylinder.normalize"),
            "cylinder.normalize_members_in": w["cylinder.normalize_members_in"],
            "cylinder.normalize_s": seconds("cylinder.normalize"),
            "cylinder.measure_calls": calls(*MEASURES, outer=MEASURES),
            "cylinder.measure_s": seconds(*MEASURES, outer=MEASURES),
            "cylinder.parse_s": seconds("cylinder.parse_binary_set", "cylinder.parse_family_set"),
            "diagonal.escape_s": seconds("diagonal.escape_binary", "diagonal.escape_family"),
            "diagonal.levels": w["diagonal.levels"],
            "diagonal.candidates_tried": w["diagonal.candidates_tried"],
            "diagonal.candidate_hit_ratio": (
                w["diagonal.levels"] / w["diagonal.candidates_tried"] if w["diagonal.candidates_tried"] else 0.0
            ),
            "diagonal.cond_exact_calls": calls("diagonal.conditional_measure_exact"),
            "diagonal.cond_exact_s": seconds("diagonal.conditional_measure_exact"),
            "diagonal.cond_approx_calls": calls("diagonal.conditional_measure_approx"),
            "diagonal.cond_approx_s": seconds("diagonal.conditional_measure_approx"),
            "diagonal.precision_max": self.precision_max,
            "diagonal.assemble_s": seconds("diagonal.assemble_open_set"),
            "diagonal.stage_calls": calls("diagonal._stage_for"),
            "diagonal.testfamily_s": seconds("diagonal.build_ggm_testfamily"),
            "diagonal.testfamily_members": w["diagonal.testfamily_members"],
            "diagonal.verify_s": seconds("diagonal.verify_escape"),
            "pipeline.run_s": seconds("pipeline.run_pipeline"),
            "pipeline.self_s": selfs.get("pipeline", 0.0),
            "pipeline.materialized_members": w["pipeline.materialized_members"],
            "rom.tables_enumerated": w["rom.tables_enumerated"],
            "rom.bad_tables": w["rom.bad_tables"],
            "rom.bad_table_ratio": (
                w["rom.bad_tables"] / w["rom.tables_enumerated"] if w["rom.tables_enumerated"] else 0.0
            ),
            "rom.bad_tables_s": seconds("rom.bad_tables_for"),
            "rom.pattern_measure_s": seconds("rom.pattern_set_measure"),
            "rom.strings_s": seconds("rom.build_constraint_strings"),
            "rom.strings_materialized": w["rom.strings_materialized"],
            "fdh.sigforge_calls": calls("fdh.sigforge_toy"),
            "fdh.sigforge_s": seconds("fdh.sigforge_toy"),
            "cli.calls": calls("cli.main"),
            "cli.self_s": selfs.get("cli", 0.0),
            "programs.build_s": seconds(*builders, outer=builders),
            "schedules.calls": sum(n for k, n in self.counts.items() if k.startswith("schedules.")),
            "numbering.calls": sum(n for k, n in self.counts.items() if k.startswith("numbering.")),
            "trace.overhead_ratio": overhead_ratio,
        }

    def dump(self, path: Path, extra: dict) -> None:
        payload = {
            **extra,
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "qid": s[5], "self": s[6]}
                for s in self.spans
            ],
            "hot": [
                {"name": name, "parent": parent, "count": n, "total_s": total, "self_s": self_time}
                for (name, parent), (n, total, self_time) in sorted(self.hot.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")


def load_layers() -> dict[str, list[list[str]]]:
    """Per-layer metric -> [[end-to-end metric, workload], ...] it should move."""
    return json.loads(LAYERS.read_text())


def layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, in the order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}


def report(tracer: Tracer, metrics: dict[str, float], answer_s: float, out=sys.stdout) -> None:
    """Human-readable per-layer report: metrics, self-time table, shares."""
    layers = load_layers()
    print("per-layer metrics (traced run):", file=out)
    for name, unit in layer_units().items():
        moves = ", ".join(f"{m} on {w}" for m, w in layers[name])
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit:6s} -> {moves}", file=out)
    selfs = tracer.self_by_module()
    print(f"self time by module, set-up replay included (answer time {answer_s:.3f} s):", file=out)
    for module, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        share = seconds / answer_s if answer_s else 0.0
        print(f"  {module:12s} {seconds:10.4f} s {share:7.1%}", file=out)
    core = selfs.get("vm", 0.0) + selfs.get("experiments", 0.0)
    print(f"  vm + experiments self share of answer time: {core / answer_s if answer_s else 0.0:.1%}", file=out)
    print(f"tracing overhead: {metrics['trace.overhead_ratio']:.1%} of untraced answer time", file=out)
