"""tieupkit benchmark: seeded known-answer corpora, end-to-end metrics, stage trace.

    python3 bench/run.py --workload news --seed 1 --seconds 30 --trace 0

The package is imported from the ``src/`` directory beside this one, never
from an installed copy.  The workload's corpus is generated from the seed
(see ``corpora.py``), every output is checked against its known answer, and
two JSON lines end standard output: the run record, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from an outside-in trace
(``tracing.py``) whose spans are written to ``.bench_out/``.  The exit code
is 0 only when every output matched its answer.

The run is made of rounds.  A round extracts and scores every document and
runs the CLI on every batch of documents once, the three alternating batch by
batch; rounds repeat while the next one still fits in ``--seconds``, at least
one.  Between them a fixed reference unit gauges the host's speed
(``reference.py``), and each time is scaled to reference speed by its
round's median reference time.  Each document (and CLI batch) is reported at
the median of its scaled times, rates are documents over the sum of those
medians, and latency percentiles are over documents.  ``setup_s`` is scaled
likewise, each sample by the round next to it; ``peak_rss_mb`` is not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from reference import REFERENCE_SECONDS, time_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s: after one that compiles bytecode,
# SETUP_RUNS before the first round and one after each round, so that the
# samples span the run.
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "import tieupkit, tieupkit.cli\n"
    "tieupkit.cli.load_resources()\n"
    "print(time.perf_counter() - started, tieupkit.__file__)\n"
)

PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# Shown on standard error per kind of check, so a broken run stays readable.
MAX_REPORTED_FAILURES = 3


def import_package():
    """Import tieupkit from this checkout's src/, or exit without a result."""
    if not (SRC / "tieupkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no tieupkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tieupkit

    where = Path(tieupkit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: tieupkit imported from {where}, not from {SRC}")
    return tieupkit


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tieupkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """Highest of PERCENTILES with at least ten of ``samples`` beyond it;
    the median when no higher one has."""
    return max([50] + [q for q in PERCENTILES if samples * (1 - q / 100) >= 10])


def measure_setup(runs: int) -> list[float]:
    """import tieupkit + load_resources() in ``runs`` fresh interpreters,
    seconds each."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, where = proc.stdout.split(maxsplit=1)
        if SRC.resolve() not in Path(where.strip()).resolve().parents:
            raise SystemExit(f"error: set-up imported tieupkit from {where.strip()}")
        times.append(float(seconds))
    return times


class Checks:
    """Known-answer checks: one attempt per document per pass of a phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported: dict[str, int] = {}

    def check(self, kind: str, doc_id: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        shown = self.reported.get(kind, 0)
        if shown < MAX_REPORTED_FAILURES:
            print(f"FAIL {kind} {doc_id} {detail}".rstrip(), file=sys.stderr)
        self.reported[kind] = shown + 1

    def outputs(self, kind, corpus, outputs, reference=None):
        for d, out, ref in zip(corpus.documents, outputs, reference or [None] * len(outputs)):
            expected = d.expected if reference is None else ref
            self.check(kind, d.doc_id, out == expected,
                       "" if out == expected else f"got {out!r} expected {expected!r}")


# Documents per CLI invocation.  A news document takes about 2 ms, so news
# runs 20 to an invocation and the start-up of each (argument parsing,
# load_resources) stays a small share; other workloads run one each.
CLI_BATCH = {"news": 20}

# After each document and each CLI batch the reference unit is timed for
# this share of the time they took, and at least once.
REFERENCE_SHARE = 0.05


class Runner:
    """The three measured phases over one corpus, one document (or, for the
    CLI, one batch of documents) at a time."""

    def __init__(self, corpus, workdir: Path):
        from tieupkit import cli

        self.corpus = corpus
        self.docs = len(corpus.documents)
        self.keys = [d.key.text() for d in corpus.documents]
        self.resources = cli.load_resources()
        self.tracer = None  # set for the traced phases
        self.corpus_dir = workdir / "corpus"
        self.out_dir = workdir / "out"
        size = CLI_BATCH.get(corpus.workload, 1)
        self.batches = [corpus.documents[i:i + size] for i in range(0, self.docs, size)]
        for b, batch in enumerate(self.batches):
            (self.corpus_dir / f"b{b:04d}").mkdir(parents=True)
            for d in batch:
                (self.corpus_dir / f"b{b:04d}" / f"{d.doc_id}.tok").write_text(d.tokens, "utf-8")

    def _begin(self, phase, round_no):
        if self.tracer is not None:
            self.tracer.begin(phase, round_no)

    def extract_one(self, d):
        """parse -> extract -> serialize of one document, through module
        attributes so a tracer sees every call.  Returns (seconds,
        extract+serialize seconds, output), all None if it raised."""
        from tieupkit import pipeline, templates, tokens

        if self.tracer is not None:
            self.tracer.doc = d.doc_id
        t0 = time.perf_counter()
        try:
            (doc,) = tokens.parse_token_file(d.tokens, d.doc_id)
            t1 = time.perf_counter()
            text = templates.serialize_templates(
                pipeline.extract_document(doc, self.resources).graph)
        except Exception:
            traceback.print_exc()
            return None, None, None
        t2 = time.perf_counter()
        return t2 - t0, t2 - t1, text

    def extract(self, documents=None):
        """extract_one over the corpus, or over ``documents``."""
        return [self.extract_one(d) for d in documents or self.corpus.documents]

    def score_one(self, d, response, key):
        """parse response and key, score_documents, format, for one
        document.  Returns (seconds, (COR, PAR, INC, MIS, SPU)), both None
        if it raised."""
        from tieupkit import scoring, templates

        t0 = time.perf_counter()
        try:
            report = scoring.score_documents([
                (d.doc_id, templates.parse_templates(response or "", d.doc_id),
                 templates.parse_templates(key, d.doc_id))])
            report.format()
        except Exception:
            traceback.print_exc()
            return None, None
        seconds = time.perf_counter() - t0
        c = report.documents[0].counts
        return seconds, (c.cor, c.par, c.inc, c.mis, c.spu)

    def cli(self, b):
        """``tieupkit extract`` in-process with default flags on batch ``b``.
        Returns (seconds, exit code, outputs read back, None where missing)."""
        from tieupkit import cli

        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = ["extract", "--corpus", str(self.corpus_dir / f"b{b:04d}"),
                "--out", str(self.out_dir)]
        t0 = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.region("cli.main"):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        outputs = []
        for d in self.batches[b]:
            path = self.out_dir / f"{d.doc_id}.tmpl"
            outputs.append(path.read_text("utf-8") if path.is_file() else None)
        return seconds, code, outputs

    def round(self, round_no):
        """Every document extracted and scored, and every CLI batch run, once.

        The phases alternate batch by batch, so each samples the whole
        round, and the reference unit is timed after every document and
        every batch (see gauge).  Returns per-document extract_one and score_one
        results, per-batch cli results and the reference times.
        """
        extracts, scores, clis, refs = [], [], [], []
        for b, batch in enumerate(self.batches):
            for d in batch:
                self._begin("extract", round_no)
                extracts.append(self.extract_one(d))
                self._begin("score", round_no)
                scores.append(self.score_one(d, extracts[-1][2], self.keys[len(scores)]))
                gauge(refs, (extracts[-1][0] or 0) + (scores[-1][0] or 0))
            self._begin("cli", round_no)
            clis.append(self.cli(b))
            gauge(refs, clis[-1][0])
        return extracts, scores, clis, refs


def gauge(refs: list[float], seconds: float):
    """Append reference times for REFERENCE_SHARE of ``seconds``, at least one."""
    spent = 0.0
    while not spent or spent < REFERENCE_SHARE * seconds:
        refs.append(time_reference())
        spent += refs[-1]


def check_rounds(checks, runner, rounds, reference=None):
    """Every output of every round against its known answer, or extraction
    outputs against ``reference``."""
    corpus = runner.corpus
    for extracts, scores, clis, _ in rounds:
        checks.outputs("extract", corpus, [out for _, _, out in extracts], reference)
        for d, (_, got) in zip(corpus.documents, scores):
            checks.check("score", d.doc_id, got == d.counts,
                         "" if got == d.counts else f"counts {got} expected {d.counts}")
        outputs = []
        for batch, (_, code, batch_outputs) in zip(runner.batches, clis):
            if code != 0:
                print(f"FAIL cli exit code {code}", file=sys.stderr)
                batch_outputs = [None] * len(batch)
            outputs.extend(batch_outputs)
        checks.outputs("cli", corpus, outputs)


def run_rounds(runner, seconds: float, between=None) -> list:
    """Rounds (see Runner.round) while the next one, at the length of the
    last, still ends within ``seconds``; the first is always made.
    ``between`` is called after each round, inside the budget."""
    rounds = []
    started = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= seconds:
        t = time.perf_counter()
        rounds.append(runner.round(len(rounds)))
        if between is not None:
            between()
        last = time.perf_counter() - t
    return rounds


def round_scales(rounds) -> list[float]:
    """Per round, REFERENCE_SECONDS over its median reference time."""
    return [REFERENCE_SECONDS / statistics.median(r[3]) for r in rounds]


def medians(rounds, phase: int, field: int = 0, scaled: bool = True) -> list[float]:
    """Per document (or CLI batch), the median of its times over the rounds,
    each scaled to reference speed unless ``scaled`` is false.

    A time is scaled by REFERENCE_SECONDS over the median reference time of
    its round, so that the host's drift from round to round cancels (see
    reference.py).  Units that never finished are left out.
    """
    scales = round_scales(rounds) if scaled else [1.0] * len(rounds)
    out = []
    for samples in zip(*(r[phase] for r in rounds)):
        times = [s[field] * k for s, k in zip(samples, scales) if s[field] is not None]
        if times:
            out.append(statistics.median(times))
    return out


def warm_up(runner):
    """Extract the first twentieth of the corpus once, untimed."""
    runner.extract(runner.corpus.documents[: max(1, runner.docs // 20)])


def timing_metrics(runner, rounds, tail: float, scaled: bool = True) -> dict:
    """Rates and latency percentiles from per-document medians."""
    extract = medians(rounds, 0, scaled=scaled)
    latencies = sorted(medians(rounds, 0, 1, scaled=scaled))
    score = medians(rounds, 1, scaled=scaled)
    cli = medians(rounds, 2, scaled=scaled)
    return {
        "extract_docs_per_s": (len(extract) / sum(extract), "docs/s"),
        "doc_latency_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "doc_latency_tail_ms": (percentile(latencies, tail) * 1000, "ms"),
        "score_docs_per_s": (len(score) / sum(score), "docs/s"),
        "cli_extract_docs_per_s": (runner.docs / sum(cli), "docs/s"),
    }


def end_to_end(runner, seconds: float, checks: Checks, record: dict) -> dict:
    measure_setup(1)  # compiles bytecode
    setup = measure_setup(SETUP_RUNS)
    warm_up(runner)

    after_rounds = []
    rounds = run_rounds(runner, seconds, lambda: after_rounds.extend(measure_setup(1)))
    check_rounds(checks, runner, rounds)
    # Set-up samples are scaled by the round they follow, the first ones by
    # the first round.
    scales = round_scales(rounds)
    scaled_setup = ([t * scales[0] for t in setup]
                    + [t * k for t, k in zip(after_rounds, scales)])
    setup += after_rounds

    tail = tail_percentile(runner.docs)
    record.update(
        setup_samples=len(setup),
        rounds=len(rounds),
        cli_batches=len(runner.batches),
        latency_samples=runner.docs,
        tail_percentile=tail,
        reference_ms=statistics.median(t for r in rounds for t in r[3]) * 1000,
        unscaled={
            "setup_s": statistics.median(setup),
            **{name: v for name, (v, _) in
               timing_metrics(runner, rounds, tail, scaled=False).items()},
        },
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        **timing_metrics(runner, rounds, tail),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


# Per-layer time metrics: metric name -> (phase, span name or name#self/#max).
LAYER_TIMES = {
    "tokens.parse_s": ("extract", "tokens.parse"),
    "tokens.recognize_s": ("extract", "tokens.recognize"),
    "tokens.group_s": ("extract", "tokens.group"),
    "concepts.find_s": ("extract", "concepts.find"),
    "patterns.match_s": ("extract", "patterns.match"),
    "patterns.select_s": ("extract", "patterns.select"),
    "discourse.registry_s": ("extract", "discourse.registry"),
    "discourse.unify_s": ("extract", "discourse.unify"),
    "discourse.topics_s": ("extract", "discourse.topics"),
    "discourse.segment_s": ("extract", "discourse.segment"),
    "discourse.pronouns_s": ("extract", "discourse.pronouns"),
    "discourse.merge_s": ("extract", "discourse.merge"),
    "pipeline.extract_s": ("extract", "pipeline.extract"),
    "pipeline.self_s": ("extract", "pipeline.extract#self"),
    "templates.generate_s": ("extract", "templates.generate"),
    "templates.serialize_s": ("extract", "templates.serialize"),
    "templates.parse_s": ("score", "templates.parse"),
    "scoring.score_s": ("score", "scoring.score"),
    "scoring.fills_s": ("score", "scoring.fills"),
    "scoring.metrics_s": ("score", "scoring.metrics"),
    "scoring.format_s": ("score", "scoring.format"),
    "cli.load_resources_s": ("cli", "cli.load_resources"),
}

LAYER_COUNTS = {
    "extract": ("tokens.tokens_in", "tokens.units_out", "concepts.hits",
                "patterns.rules_tried", "patterns.rules_skipped", "patterns.assignments",
                "patterns.winners", "discourse.registry_entries", "discourse.lcs_calls",
                "discourse.entry_at_calls", "discourse.segments",
                "discourse.pronouns_resolved", "discourse.pronouns_empty",
                "discourse.attached", "discourse.diagnostics", "templates.objects"),
    "score": ("scoring.align_pairs", "scoring.fills_scored"),
}


def per_layer(runner, seconds: float, checks: Checks, record: dict) -> dict:
    from tracing import Tracer

    started = time.perf_counter()
    warm_up(runner)
    before = runner.extract()
    reference = [out for _, _, out in before]
    checks.outputs("extract", runner.corpus, reference)

    tracer = Tracer()
    runner.tracer = tracer
    try:
        with tracer.installed():
            rounds = run_rounds(runner, seconds - (time.perf_counter() - started))
    finally:
        runner.tracer = None
    # A second untraced pass after the traced ones, so that drift in machine
    # speed over the run does not read as tracing overhead.
    after = runner.extract()
    checks.outputs("extract", runner.corpus, [out for _, _, out in after])
    # Traced extraction must print byte for byte what the untraced one did.
    check_rounds(checks, runner, rounds, reference)
    unused = tracer.unused()
    if unused:
        raise SystemExit(f"error: traced functions never called: {', '.join(unused)}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{runner.corpus.workload}-{runner.corpus.seed}.jsonl"
    tracer.write(trace_path)

    totals = {phase: tracer.pass_totals(phase) for phase in ("extract", "score", "cli")}
    values = {}
    for metric, (phase, key) in LAYER_TIMES.items():
        values[metric] = (statistics.median(t[key] for t in totals[phase].values()), "s")
    values["patterns.match_max_sentence_ms"] = (
        statistics.median(t["patterns.match#max"] for t in totals["extract"].values()) * 1000,
        "ms")
    for phase, names in LAYER_COUNTS.items():
        first = tracer.counts[(phase, 0)]
        for name in names:
            values[name] = (first[name], "count")
    assignments = values["patterns.assignments"][0]
    values["patterns.winner_ratio"] = (
        values["patterns.winners"][0] / assignments if assignments else 0.0, "ratio")
    # CLI wall time beyond the extract and serialize calls made inside it.
    values["cli.overhead_s"] = (statistics.median(
        t["cli.main"] - t["pipeline.extract"] - t["templates.serialize"]
        for t in totals["cli"].values()), "s")
    def pass_seconds(extracts):
        return sum(t for t, _, _ in extracts if t is not None)

    traced = statistics.median(pass_seconds(r[0]) for r in rounds)
    untraced = (pass_seconds(before) + pass_seconds(after)) / 2
    values["trace.overhead_ratio"] = (traced / untraced - 1, "ratio")

    extract_s = values["pipeline.extract_s"][0]
    record.update(
        trace_file=str(trace_path.relative_to(ROOT)),
        spans=len(tracer.spans),
        calls=dict(sorted(tracer.calls.items())),
        rounds=len(rounds),
        shares={
            "patterns.match_s/pipeline.extract_s": values["patterns.match_s"][0] / extract_s,
            "discourse.unify_s/pipeline.extract_s": values["discourse.unify_s"][0] / extract_s,
            "scoring.fills_s/scoring.score_s":
                values["scoring.fills_s"][0] / values["scoring.score_s"][0],
        },
    )
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import corpora

    if args.workload not in corpora.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(corpora.WORKLOADS)}")
    corpus = corpora.WORKLOADS[args.workload](args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "corpus_sha256": corpus.digest(),
        "documents": len(corpus.documents),
    }
    checks = Checks()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        runner = Runner(corpus, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds, checks, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is still using it
    record["failed_frac"] = checks.failed / checks.attempted
    print(json.dumps({"record": record}, ensure_ascii=False))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
