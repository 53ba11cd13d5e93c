"""Outside-in stage trace: timing wrappers on tieupkit's module attributes.

The pipeline and the scorer call their stages through module attributes
(``tokens_mod.recognize_names``, ``disc.build_registry``, a module-global
``lcs_length`` ...), so replacing those attributes from outside the package
sees every call without touching ``src/``.  A wrapper records a span (name,
start, end, parent span, document id, phase, pass) and per-pass counters;
hot inner functions only count calls.  Spans stay in memory until
:meth:`Tracer.write`.

A later refactor that binds one of these functions by name would bypass its
wrapper silently, so :meth:`Tracer.unused` lists every target that recorded
no call, and the benchmark fails on it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from tieupkit import cli, concepts, discourse, patterns, pipeline, scoring, templates, tokens


def _sentence_tokens(doc) -> int:
    return sum(len(s) for s in doc.sentences)


def _count_registry(c, args, result):
    c["discourse.registry_entries"] += len(result)


def _count_prefilter(c, args, result):
    c["patterns.rules_tried" if result else "patterns.rules_skipped"] += 1


def _count_pronouns(c, args, result):
    resolved = sum(1 for p in result if p.referent_ids)
    c["discourse.pronouns_resolved"] += resolved
    c["discourse.pronouns_empty"] += len(result) - resolved


def _count_merge(c, args, result):
    c["discourse.attached"] += len(result.attached)
    c["discourse.diagnostics"] += len(result.diagnostics)


def _count_fills(c, args, result):
    response, key = args
    c["scoring.align_pairs"] += (len(response.entities) * len(key.entities)
                                 + len(response.tieups) * len(key.tieups))
    c["scoring.fills_scored"] += len(result)


def _target(owner, attr: str) -> str:
    """"module.attribute" or "module.Class.attribute", without the package."""
    if isinstance(owner, type):
        prefix = f"{owner.__module__}.{owner.__qualname__}"
    else:
        prefix = owner.__name__
    return f"{prefix.removeprefix('tieupkit.')}.{attr}"


def _counter(name, measure):
    def count(c, args, result):
        c[name] += measure(args, result)
    return count


# (owner, attribute, span name, counter hook, records spans).  A counter
# hook is called with the pass's Counter, the arguments and the result; a
# string instead names a counter that counts calls.  The same function bound
# in two modules is wrapped in both under one span name.
TARGETS = [
    (tokens, "parse_token_file", "tokens.parse", None, True),
    (tokens, "recognize_names", "tokens.recognize",
     _counter("tokens.tokens_in", lambda a, r: _sentence_tokens(a[0])), True),
    (tokens, "group_segments", "tokens.group",
     _counter("tokens.units_out", lambda a, r: _sentence_tokens(r)), True),
    (concepts, "find_concepts", "concepts.find",
     _counter("concepts.hits", lambda a, r: len(r)), True),
    (patterns, "match_sentence", "patterns.match",
     _counter("patterns.assignments", lambda a, r: len(r)), True),
    (patterns, "select_best", "patterns.select",
     _counter("patterns.winners", lambda a, r: len(r)), True),
    (patterns, "index_prefilter", "patterns.index_prefilter", _count_prefilter, False),
    (discourse, "build_registry", "discourse.registry", _count_registry, True),
    (discourse, "unify_company_references", "discourse.unify", None, True),
    (discourse, "lcs_length", "discourse.lcs", "discourse.lcs_calls", False),
    (discourse.CompanyRegistry, "entry_at", "discourse.entry_at",
     "discourse.entry_at_calls", False),
    (discourse, "track_topics", "discourse.topics", None, True),
    (discourse, "segment_discourse", "discourse.segment",
     _counter("discourse.segments", lambda a, r: len(r)), True),
    (discourse, "resolve_pronouns", "discourse.pronouns", _count_pronouns, True),
    (discourse, "merge_concepts", "discourse.merge", _count_merge, True),
    (pipeline, "extract_document", "pipeline.extract", None, True),
    (cli, "extract_document", "pipeline.extract", None, True),
    (pipeline, "generate_templates", "templates.generate",
     _counter("templates.objects", lambda a, r: len(r.tieups) + len(r.entities)), True),
    (templates, "serialize_templates", "templates.serialize", None, True),
    (cli, "serialize_templates", "templates.serialize", None, True),
    (templates, "parse_templates", "templates.parse", None, True),
    (scoring, "score_documents", "scoring.score", None, True),
    (scoring, "score_fills", "scoring.fills", _count_fills, True),
    (scoring, "compute_metrics", "scoring.metrics", None, True),
    (scoring.ScoreReport, "format", "scoring.format", None, True),
    (cli, "load_resources", "cli.load_resources", None, True),
]

# Spans of these names take their document id from the call's arguments.
_DOC_OF = {
    "pipeline.extract": lambda args: args[0].doc_id,
    "scoring.fills": lambda args: args[0].doc_id,
}

# Span fields, in the order each span list holds them.
FIELDS = ("name", "start", "end", "parent", "doc", "phase", "pass")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()  # per "owner.attribute" target
        self.counts: dict[tuple[str, int], Counter] = defaultdict(Counter)
        self.doc: str | None = None
        self.phase = ""
        self.pass_no = 0
        self._current = self.counts[("", 0)]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, phase: str, pass_no: int):
        """Attribute the spans and counts that follow to one pass of a phase."""
        self.phase, self.pass_no = phase, pass_no
        self._current = self.counts[(phase, pass_no)]

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.doc, self.phase, self.pass_no])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """A span around code in the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, target: str, name: str, fn, count, spans: bool):
        tracer = self

        if isinstance(count, str):
            # The hottest calls (lcs_length, entry_at): keep the wrapper lean.
            def calls_only(*args, **kwargs):
                tracer.calls[target] += 1
                tracer._current[count] += 1
                return fn(*args, **kwargs)
            return calls_only

        if not spans:
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.calls[target] += 1
                count(tracer._current, args, result)
                return result
            return counting

        def timed(*args, **kwargs):
            tracer.calls[target] += 1
            if name in _DOC_OF:
                tracer.doc = _DOC_OF[name](args)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer._current, args, result)
            return result
        return timed

    def install(self):
        for owner, attr, name, count, spans in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            wrapper = self._wrap(_target(owner, attr), name, original, count, spans)
            setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put back every original attribute and check that each is back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        left = [_target(o, a) for o, a, f in self._originals if o.__dict__[a] is not f]
        self._originals.clear()
        if left:
            raise RuntimeError(f"attributes not restored: {left}")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def unused(self) -> list[str]:
        """Targets that recorded no call."""
        return [t for t in (_target(o, a) for o, a, *_ in TARGETS) if not self.calls[t]]

    # -------------------------------------------------------- aggregation

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def pass_totals(self, phase: str) -> dict[int, Counter]:
        """Per pass of ``phase``: summed seconds per span name, plus
        ``<name>#self`` self time and ``<name>#max`` longest single span."""
        own = self._self_times()
        out: dict[int, Counter] = defaultdict(Counter)
        for s, self_s in zip(self.spans, own):
            if s[5] != phase:
                continue
            c = out[s[6]]
            duration = s[2] - s[1]
            c[s[0]] += duration
            c[s[0] + "#self"] += self_s
            c[s[0] + "#max"] = max(c[s[0] + "#max"], duration)
        return out

    def write(self, path):
        """Spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                row = dict(zip(FIELDS, s))
                row["start"] = round(s[1] - origin, 9)
                row["end"] = round(s[2] - origin, 9)
                f.write(json.dumps(row, ensure_ascii=False) + "\n")
