"""Batch front end: ``tieupkit extract`` and ``tieupkit score``.

Flags mirror the keys of an optional ``key = value`` config file; flags
win on conflict.  Extraction writes one template file per input document
(``<doc_id>.tmpl``) plus any requested diagnostic dumps; scoring compares
two directories of template files and prints one metrics row per document
and a TOTAL row over the pooled counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from importlib import resources as importlib_resources
from pathlib import Path

from . import concepts as concepts_mod
from . import discourse as disc
from . import patterns as patterns_mod
from . import tokens as tokens_mod
from .config import discourse_config_from, read_kv_config
from .errors import TieupkitError
from .pipeline import (
    ExtractionResources,
    ExtractionResult,
    extract_document,
    extract_document_no_discourse,
)
from .scoring import score_documents
from .templates import parse_templates, serialize_templates


DUMP_STAGES = ("matches", "topics", "registry", "segments")


@dataclass
class RunConfig:
    corpus: Path
    out: Path
    concepts: Path | None = None
    patterns: Path | None = None
    designators: Path | None = None
    concept_map: Path | None = None
    dump: tuple[str, ...] = ()
    no_discourse: bool = False
    discourse: disc.DiscourseConfig = disc.DiscourseConfig()


def _packaged(name: str) -> str:
    return (importlib_resources.files("tieupkit.data") / name).read_text("utf-8")


def _read(path: Path | None, default_name: str) -> tuple[str, str]:
    if path is None:
        return _packaged(default_name), f"<packaged {default_name}>"
    return path.read_text("utf-8"), str(path)


def load_resources(config: RunConfig | None = None) -> ExtractionResources:
    """Parse the configured lexicons and rules; packaged defaults when None."""
    if config is None:
        config = RunConfig(corpus=Path("."), out=Path("."))
    designator_text, designator_path = _read(config.designators, "designators.lex")
    concept_text, concept_path = _read(config.concepts, "concepts.lex")
    pattern_text, pattern_path = _read(config.patterns, "patterns.pat")
    map_text, map_path = _read(config.concept_map, "concept_map.tsv")
    return ExtractionResources(
        designators=tokens_mod.load_designator_lexicon(designator_text, designator_path),
        concept_lexicon=concepts_mod.load_concept_lexicon(concept_text, concept_path),
        rules=patterns_mod.parse_pattern_file(pattern_text, pattern_path),
        concept_map=patterns_mod.load_concept_map(map_text, map_path),
        discourse=config.discourse,
    )


def _corpus_files(corpus: Path) -> list[Path]:
    if corpus.is_dir():
        files = sorted(corpus.glob("*.tok"))
        if not files:
            raise TieupkitError(f"no *.tok files in {corpus}")
        return files
    return [corpus]


def _atomic_write(path: Path, content: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(content, "utf-8")
    os.replace(tmp, path)


def _dump_text(result: ExtractionResult, stage: str) -> str:
    lines: list[str] = []
    if stage == "registry":
        for e in result.registry.entries:
            alias = f" alias-of={e.alias_of}" if e.alias_of else ""
            lines.append(
                f"{e.index}\t{e.string}\t{e.pos}\teg={'yes' if e.eg else 'no'}"
                f"\tid={e.entity_id}\tat={e.position}{alias}"
            )
    elif stage == "topics":
        for s, ids in enumerate(result.topics.topics):
            flag = " (inherited)" if result.topics.inherited[s] else ""
            names = " ".join(result.registry.canonical_string(i) for i in sorted(ids))
            lines.append(f"s{s}: {names or '-'}{flag}")
    elif stage == "matches":
        for m in result.winners:
            sentence = result.document.sentences[m.sent_index]
            parts = [
                f"{name}={m.binding_text(sentence, name)}" for name in m.bindings
            ]
            lines.append(
                f"s{m.sent_index}: {m.rule_name} consumed={m.consumed} "
                f"cname={m.cname_filled} {' '.join(parts)}"
            )
    elif stage == "segments":
        for seg in result.segments:
            names = " ".join(
                result.registry.canonical_string(i) for i in sorted(seg.tieup_ids)
            )
            lines.append(f"s{seg.start}-s{seg.end}: {names or '-'} [{seg.structure_label}]")
    return "\n".join(lines) + "\n"


def run_extract(config: RunConfig) -> int:
    try:
        resources = load_resources(config)
        docs = []
        for path in _corpus_files(config.corpus):
            docs.extend(tokens_mod.parse_token_file(path.read_text("utf-8"), str(path)))
        seen_ids = set()
        for doc in docs:
            if doc.doc_id in seen_ids:
                raise TieupkitError(f"duplicate document id {doc.doc_id!r} in corpus")
            seen_ids.add(doc.doc_id)
    except (TieupkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    config.out.mkdir(parents=True, exist_ok=True)
    extract = extract_document_no_discourse if config.no_discourse else extract_document
    try:
        for doc in docs:
            result = extract(doc, resources)
            _atomic_write(config.out / f"{doc.doc_id}.tmpl",
                          serialize_templates(result.graph))
            for stage in config.dump:
                _atomic_write(config.out / f"{doc.doc_id}.{stage}.txt",
                              _dump_text(result, stage))
    except (TieupkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run_score(response_dir: Path, key_dir: Path) -> int:
    try:
        key_files = sorted(key_dir.glob("*.tmpl"))
        if not key_files:
            raise TieupkitError(f"no *.tmpl files in {key_dir}")
        pairs = []
        for key_path in key_files:
            doc_id = key_path.stem
            key_graph = parse_templates(key_path.read_text("utf-8"), doc_id, str(key_path))
            resp_path = response_dir / key_path.name
            if resp_path.exists():
                resp_graph = parse_templates(
                    resp_path.read_text("utf-8"), doc_id, str(resp_path)
                )
            else:
                print(f"warning: no response for {doc_id}; counting all fills missing",
                      file=sys.stderr)
                resp_graph = parse_templates("", doc_id)
            pairs.append((doc_id, resp_graph, key_graph))
        for resp_path in sorted(response_dir.glob("*.tmpl")):
            if not (key_dir / resp_path.name).exists():
                doc_id = resp_path.stem
                print(f"warning: response {doc_id} has no answer key; counting all "
                      f"fills spurious", file=sys.stderr)
                resp_graph = parse_templates(
                    resp_path.read_text("utf-8"), doc_id, str(resp_path)
                )
                pairs.append((doc_id, resp_graph, parse_templates("", doc_id)))
    except (TieupkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = score_documents(pairs)
    print(report.format())
    return 0


def _build_run_config(args) -> RunConfig:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = read_kv_config(Path(args.config).read_text("utf-8"), args.config)

    def pick(name: str, flag_value):
        if flag_value not in (None, [], False):
            return flag_value
        return file_values.get(name)

    corpus = pick("corpus", args.corpus)
    out = pick("out", args.out)
    if not corpus or not out:
        raise TieupkitError("both --corpus and --out are required (flag or config)")

    dump = args.dump or []
    if not dump and file_values.get("dump"):
        dump = file_values["dump"].replace(",", " ").split()
    for stage in dump:
        if stage not in DUMP_STAGES:
            raise TieupkitError(f"unknown dump stage {stage!r}")

    def opt_path(name: str, flag_value) -> Path | None:
        value = pick(name, flag_value)
        return Path(value) if value else None

    config = RunConfig(
        corpus=Path(corpus),
        out=Path(out),
        concepts=opt_path("concepts", args.concepts),
        patterns=opt_path("patterns", args.patterns),
        designators=opt_path("designators", args.designators),
        concept_map=opt_path("concept_map", args.concept_map),
        dump=tuple(dump),
        no_discourse=args.no_discourse,
        discourse=discourse_config_from(file_values),
    )
    for path in (config.corpus, config.concepts, config.patterns,
                 config.designators, config.concept_map):
        if path is not None and not path.exists():
            raise TieupkitError(f"path does not exist: {path}")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tieupkit",
        description="Extract corporate tie-up templates from token files and "
                    "score them against answer keys.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="run the extraction pipeline")
    p_extract.add_argument("--corpus", help="token file or directory of *.tok files")
    p_extract.add_argument("--concepts", help="concept lexicon file")
    p_extract.add_argument("--patterns", help="template pattern file")
    p_extract.add_argument("--designators", help="name designator lexicon file")
    p_extract.add_argument("--concept-map", dest="concept_map",
                           help="rule-group to concept-label map file")
    p_extract.add_argument("--out", help="output directory")
    p_extract.add_argument("--dump", action="append", choices=DUMP_STAGES,
                           help="write per-document diagnostics for a stage")
    p_extract.add_argument("--config", help="key = value config file; flags override")
    p_extract.add_argument("--no-discourse", action="store_true",
                           help="skip discourse stages (ablation mode)")

    p_score = sub.add_parser("score", help="score responses against answer keys")
    p_score.add_argument("response_dir", type=Path)
    p_score.add_argument("key_dir", type=Path)

    args = parser.parse_args(argv)

    if args.command == "extract":
        try:
            config = _build_run_config(args)
        except (TieupkitError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run_extract(config)
    return run_score(args.response_dir, args.key_dir)


if __name__ == "__main__":
    sys.exit(main())
