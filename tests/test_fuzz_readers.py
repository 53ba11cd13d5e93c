"""Mutation fuzz of every input reader besides the template parser (which
``test_templates`` fuzzes against the former parser): each mutated file
either parses or fails with a ParseError at a line of the file, and the CLI
turns every mutated corpus or key directory into an exit code, never a
traceback."""

import random
from pathlib import Path

import pytest

from tieupkit.cli import main
from tieupkit.concepts import load_concept_lexicon
from tieupkit.errors import ParseError
from tieupkit.patterns import load_concept_map, parse_pattern_file
from tieupkit.tokens import load_designator_lexicon, parse_token_file

from conftest import DATA, PACKAGED
from fuzzing import mutate

# Characters every format shares: field and line separators, characters
# ``str.strip`` removes, characters ``str.splitlines`` breaks lines at, and
# digits that are not ASCII.
CHARS = "()<>:=#|@-_ 0123456789AXa社は\t\n\r\x0b\x1c\x85　 \x00٣"

# reader, the files it reads, and fragments of its syntax.
READERS = {
    "parse_token_file": (
        parse_token_file,
        [p.read_text("utf-8") for p in sorted((DATA / "corpus").glob("*.tok"))],
        ["#DOC d", "#DOC d\n", "#END\n", "#DOCX", "X社\tcompany\n", "\tnoun", "。\tpunct\n"],
    ),
    "parse_pattern_file": (
        parse_pattern_file,
        [(PACKAGED / "patterns.pat").read_text("utf-8")],
        ["(R 1 ", "(R 01 @A)", " 1 ", "@CNAME_X", "@SKIP", "提携:strict:VN", "は|が:loose:P",
         ":strict:", "::", ")", "(", "(Adv1 +1 提携:strict:VN @A)"],
    ),
    "load_concept_lexicon": (
        load_concept_lexicon,
        [(PACKAGED / "concepts.lex").read_text("utf-8")],
        ["(X 提携)", "(JOINT-VENTURE 提携)", ">提携<", "><", " > ", "(", ")", "#"],
    ),
    "load_designator_lexicon": (
        load_designator_lexicon,
        [(PACKAGED / "designators.lex").read_text("utf-8")],
        ["社\tcompany\n", "\tcompany", "銀行\tplace", "\t", "X\tother\n", "#"],
    ),
    "load_concept_map": (
        load_concept_map,
        [(PACKAGED / "concept_map.tsv").read_text("utf-8")],
        ["JointVenture\tJOINT-VENTURE\n", "X\tY\n", "\t", "\tX\t", "#"],
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutated_files_parse_or_fail_at_a_line(reader):
    parse, texts, pieces = READERS[reader]
    rng = random.Random(f"fuzz:{reader}")
    parsed = refused = 0
    for n in range(4000):
        text = mutate(texts[n % len(texts)], rng, CHARS, pieces)
        try:
            parse(text, "m.txt")
        except ParseError as err:
            assert err.path == "m.txt", text
            assert err.line is not None and 1 <= err.line <= len(text.splitlines()), text
            refused += 1
        else:
            parsed += 1
    # Both outcomes are exercised.
    assert parsed >= 200 and refused >= 200, (parsed, refused)


def _write_mutated(path: Path, text: str, rng) -> None:
    """``text`` mutated, sometimes with a byte that is not UTF-8 or a
    byte-order mark."""
    data = mutate(text, rng, CHARS, ["#DOC d\n", "#END\n", "<ENTITY-1> :=\n", "  NAME: X社\n"])
    data = data.encode()
    roll = rng.randrange(8)
    if roll == 0:
        i = rng.randint(0, len(data))
        data = data[:i] + rng.choice([b"\xff", b"\xc3", b"\x80"]) + data[i:]
    elif roll == 1:
        data = b"\xef\xbb\xbf" + data
    path.write_bytes(data)


def test_cli_on_mutated_corpora_and_keys_exits_cleanly(tmp_path, capsys):
    rng = random.Random(191)
    corpus = sorted((DATA / "corpus").glob("*.tok"))
    golden = sorted((DATA / "golden").glob("*.tmpl"))
    codes = {}
    for n in range(300):
        run_dir = tmp_path / str(n)
        run_dir.mkdir()
        if n % 2:
            source = corpus[n % len(corpus)]
            tok = run_dir / source.name
            _write_mutated(tok, source.read_text("utf-8"), rng)
            argv = ["extract", "--corpus", str(tok), "--out", str(run_dir / "out")]
        else:
            keys, responses = run_dir / "keys", run_dir / "responses"
            keys.mkdir()
            responses.mkdir()
            for source in golden:
                (responses / source.name).write_bytes(source.read_bytes())
            source = golden[n % len(golden)]
            _write_mutated(keys / source.name, source.read_text("utf-8"), rng)
            argv = ["score", str(responses), str(keys)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, err
        codes[code] = codes.get(code, 0) + 1
    # Both clean runs and refused inputs are exercised.
    assert codes.get(0, 0) >= 30 and codes.get(1, 0) >= 30, codes
