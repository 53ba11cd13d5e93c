"""Behaviour pinned at corpus scale.

Every document of the seed-1 benchmark corpora (``bench/corpora.py``) is
extracted with discourse processing and by the no-discourse ablation, and
each result is written as a canonical text: the serialized template, the
four dump texts, then the concept instances, the clusters (segment,
attached, diagnostics) and the pronouns, with every id set written sorted.
One pin file per workload, ``tests/data/pins/<workload>.txt``, holds one
line per document: its id, the SHA-256 of its canonical text in both modes,
and the first 8 hex digits of each part's own SHA-256, in ``PARTS`` order,
so that a mismatch names the first differing document and part.

A change that moves a pin says so, document by document, with the reason.
Rewrite the pin files with::

    python tests/test_corpus_pins.py --regenerate
"""

import hashlib
import sys

import pytest

# First, so that a run as a script finds the package in src/ too.
from conftest import DATA, bench_corpora

from tieupkit.cli import DUMP_STAGES, _dump_text, load_resources
from tieupkit.pipeline import extract_document
from tieupkit.templates import serialize_templates
from tieupkit.tokens import parse_document

from ablation import extract_without_discourse

PINS = DATA / "pins"
WORKLOADS = ("news", "long_sentence", "registry")
MODES = (("discourse", extract_document), ("ablation", extract_without_discourse))
PARTS = tuple(
    f"{mode}.{part}"
    for mode, _ in MODES
    for part in ("template", *DUMP_STAGES, "instances", "clusters", "pronouns")
)


def _ids(ids) -> str:
    return " ".join(map(str, sorted(ids))) or "-"


def _instance(inst) -> str:
    bindings = " ".join(f"{k}={v}" for k, v in sorted(inst.bindings.items())) or "-"
    return (f"{inst.concept}\ts{inst.sent_index}\t{inst.source}\t{bindings}"
            f"\tsubjects={_ids(inst.subject_ids)}\tpartners={_ids(inst.partner_ids)}")


def _clusters(clusters) -> str:
    lines = []
    for c in clusters:
        seg = c.segment
        lines.append(f"segment s{seg.start}-s{seg.end} {_ids(seg.tieup_ids)} "
                     f"[{seg.structure_label}]")
        lines += [f"  attached {_instance(i)}" for i in c.attached]
        lines += [f"  diagnostic {_instance(i)}" for i in c.diagnostics]
    return "\n".join(lines)


def canonical_parts(doc, resources) -> list[str]:
    """The canonical text of one document, part by part, in ``PARTS`` order."""
    parts = []
    for _, extract in MODES:
        result = extract(doc, resources)
        parts.append(serialize_templates(result.graph))
        parts += [_dump_text(result, stage) for stage in DUMP_STAGES]
        parts.append("\n".join(_instance(i) for i in result.instances))
        parts.append(_clusters(result.clusters))
        parts.append("\n".join(f"s{p.position[0]}t{p.position[1]}\t{p.surface}"
                               f"\t{_ids(p.referent_ids)}" for p in result.pronouns))
    return parts


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pin_line(doc_id: str, parts: list[str]) -> str:
    whole = "".join(f"== {name}\n{text}\n" for name, text in zip(PARTS, parts))
    return "\t".join([doc_id, _sha(whole), " ".join(_sha(p)[:8] for p in parts)])


def pin_lines(workload: str, resources) -> list[str]:
    corpus = bench_corpora().WORKLOADS[workload](1)
    lines = []
    for d in corpus.documents:
        doc = parse_document(d.tokens, d.doc_id)
        lines.append(pin_line(d.doc_id, canonical_parts(doc, resources)))
    return lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pins_hold(workload, resources):
    pinned = (PINS / f"{workload}.txt").read_text("utf-8").splitlines()
    got = pin_lines(workload, resources)
    assert [line.split("\t")[0] for line in got] == [line.split("\t")[0] for line in pinned], (
        f"{workload}: the corpus's document ids differ from the pin file's")
    for want, have in zip(pinned, got):
        if want == have:
            continue
        doc_id, _, want_parts = want.split("\t")
        have_parts = have.split("\t")[2]
        part = next((name for name, a, b in zip(PARTS, want_parts.split(), have_parts.split())
                     if a != b), "whole text")
        pytest.fail(f"{workload}: document {doc_id} differs from its pin first in {part}")


def regenerate():
    resources = load_resources()
    PINS.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        lines = pin_lines(workload, resources)
        (PINS / f"{workload}.txt").write_text("\n".join(lines) + "\n", "utf-8")
        print(f"{workload}: {len(lines)} documents pinned")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_corpus_pins.py --regenerate")
    regenerate()
