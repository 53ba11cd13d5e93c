"""Batch front end: ``tieupkit extract`` and ``tieupkit score``.

Extraction writes one template file per input document (``<doc_id>.tmpl``)
plus any requested diagnostic dumps; scoring compares two directories of
template files and prints one metrics row per document and a TOTAL row over
the pooled counts.
"""

import os
import sys
from collections.abc import Callable
from pathlib import Path

from . import concepts as concepts_mod
from . import patterns as patterns_mod
from . import tokens as tokens_mod
from .errors import ParseError, TieupkitError
from .pipeline import ExtractionResources, ExtractionResult, extract_document
from .records import Record
from .templates import parse_templates, serialize_templates


DUMP_STAGES = ("matches", "topics", "registry", "segments")
# The longest file name, in bytes, that common file systems accept.
NAME_MAX = 255


class Resource(Record):
    __slots__ = ()

    key: str  # RunConfig field and flag name
    help: str
    default: str  # file name in the packaged data directory
    reader: Callable[[str, str], object]
    field: str  # ExtractionResources field


# The resource files, in flag order.
RESOURCES = (
    Resource("concepts", "concept lexicon file", "concepts.lex",
             concepts_mod.load_concept_lexicon, "concept_lexicon"),
    Resource("patterns", "template pattern file", "patterns.pat",
             patterns_mod.parse_pattern_file, "rules"),
    Resource("designators", "name designator lexicon file", "designators.lex",
             tokens_mod.load_designator_lexicon, "designators"),
    Resource("concept_map", "rule-group to concept-label map file", "concept_map.tsv",
             patterns_mod.load_concept_map, "concept_map"),
)

class RunConfig(Record):
    __slots__ = ()

    corpus: Path
    out: Path
    concepts: Path | None = None
    patterns: Path | None = None
    designators: Path | None = None
    concept_map: Path | None = None
    dump: tuple[str, ...] = ()


def _read_text(path: Path) -> str:
    """A file's text without a leading UTF-8 byte-order mark; a byte that
    is not UTF-8 is a ParseError at its line."""
    data = path.read_bytes()
    # Stripped before decoding, so the error's offset counts from the text.
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        # Every reader splits with str.splitlines, so newlines need no translating.
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as the readers count them; the text before the
        # bad byte is valid, and "x" stands in for the line it starts.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8", line, str(path)) from None


def load_resources(config: RunConfig | None = None) -> ExtractionResources:
    """Parse the configured lexicons and rules; packaged defaults when None.
    Every file is read before any is parsed."""
    packaged = Path(__file__).with_name("data")
    sources = []
    for res in RESOURCES:
        path = None if config is None else getattr(config, res.key)
        name = f"<packaged {res.default}>" if path is None else str(path)
        sources.append((_read_text(path or packaged / res.default), name))
    return ExtractionResources(**{
        res.field: res.reader(text, name) for res, (text, name) in zip(RESOURCES, sources)
    })


def _corpus_files(corpus: Path) -> list[Path]:
    if corpus.is_dir():
        files = sorted(corpus.glob("*.tok"))
        if not files:
            raise TieupkitError(f"no *.tok files in {corpus}")
        return files
    return [corpus]


def _atomic_write(path: Path, content: str):
    """Write ``content`` beside ``path`` and rename it into place; a failed
    write or rename deletes the temporary file before the error goes on."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(content, "utf-8")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass  # the error being raised is the one to report
        raise


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
    resources = load_resources(config)
    docs = []
    for path in _corpus_files(config.corpus):
        docs.extend(tokens_mod.parse_token_file(_read_text(path), str(path)))
    # An id plus this suffix is the longest output file name, a temporary one.
    longest = max((".tmpl", *(f".{stage}.txt" for stage in config.dump)), key=len) + ".tmp"
    seen_ids = set()
    for doc in docs:
        if doc.doc_id in seen_ids:
            raise TieupkitError(f"duplicate document id {doc.doc_id!r} in corpus")
        if len((doc.doc_id + longest).encode()) > NAME_MAX:
            raise TieupkitError(f"document id {doc.doc_id!r} is too long for its output files")
        seen_ids.add(doc.doc_id)

    config.out.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        result = extract_document(doc, resources)
        _atomic_write(config.out / f"{doc.doc_id}.tmpl", serialize_templates(result.graph))
        for stage in config.dump:
            _atomic_write(config.out / f"{doc.doc_id}.{stage}.txt", _dump_text(result, stage))
    return 0


def run_score(response_dir: Path, key_dir: Path) -> int:
    for side, path in (("response", response_dir), ("key", key_dir)):
        if not path.is_dir():
            problem = "is not a directory" if path.exists() else "does not exist"
            raise TieupkitError(f"{side} directory {path} {problem}")
    key_files = sorted(key_dir.glob("*.tmpl"))
    if not key_files:
        raise TieupkitError(f"no *.tmpl files in {key_dir}")
    pairs = []
    for key_path in key_files:
        doc_id = key_path.stem
        key_graph = parse_templates(_read_text(key_path), doc_id, str(key_path))
        resp_path = response_dir / key_path.name
        if resp_path.exists():
            resp_graph = parse_templates(_read_text(resp_path), doc_id, str(resp_path))
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
            resp_graph = parse_templates(_read_text(resp_path), doc_id, str(resp_path))
            pairs.append((doc_id, resp_graph, parse_templates("", doc_id)))

    # Imported here, its one user: extraction never loads the scorer.
    from .scoring import score_documents

    report = score_documents(pairs)
    try:
        print(report.format())
    except UnicodeEncodeError:
        # The text is encoded whole before it is written, so stdout stays empty.
        raise TieupkitError(f"stdout encoding {sys.stdout.encoding} cannot write the "
                            f"report; set PYTHONIOENCODING=utf-8") from None
    return 0


def _build_run_config(args) -> RunConfig:
    def opt_path(name: str) -> Path | None:
        value = getattr(args, name)
        if value and "\0" in value:
            raise TieupkitError(f"{name} path {value!r} holds a NUL byte")
        return Path(value) if value else None

    corpus = opt_path("corpus")
    out = opt_path("out")
    if not corpus or not out:
        raise TieupkitError("both --corpus and --out are required")

    resources = {res.key: opt_path(res.key) for res in RESOURCES}
    for path in (corpus, *resources.values()):
        if path is not None and not path.exists():
            raise TieupkitError(f"path does not exist: {path}")
    return RunConfig(corpus=corpus, out=out, **resources, dump=tuple(args.dump or ()))


def main(argv: list[str] | None = None) -> int:
    # Imported here, its one user: a library caller of load_resources or
    # run_extract never loads argparse (nor the gettext it imports).
    import argparse

    parser = argparse.ArgumentParser(
        prog="tieupkit",
        description="Extract corporate tie-up templates from token files and "
                    "score them against answer keys.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="run the extraction pipeline")
    p_extract.add_argument("--corpus", help="token file or directory of *.tok files")
    for res in RESOURCES:
        p_extract.add_argument("--" + res.key.replace("_", "-"), dest=res.key, help=res.help)
    p_extract.add_argument("--out", help="output directory")
    p_extract.add_argument("--dump", action="append", choices=DUMP_STAGES,
                           help="write per-document diagnostics for a stage")

    p_score = sub.add_parser("score", help="score responses against answer keys")
    p_score.add_argument("response_dir", type=Path)
    p_score.add_argument("key_dir", type=Path)

    args = parser.parse_args(argv)

    config = None
    try:
        if args.command == "extract":
            config = _build_run_config(args)
            return run_extract(config)
        return run_score(args.response_dir, args.key_dir)
    except (TieupkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # 2 for a configuration that could not be built, 1 for any other fault.
        return 2 if args.command == "extract" and config is None else 1


if __name__ == "__main__":
    sys.exit(main())
