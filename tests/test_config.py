import pytest

from tieupkit.cli import read_kv_config
from tieupkit.concepts import load_concept_lexicon
from tieupkit.errors import ParseError
from tieupkit.patterns import load_concept_map
from tieupkit.tokens import load_designator_lexicon


class TestKvConfig:
    def test_basic(self):
        values = read_kv_config("# run\ncorpus = in.tok\nout = outdir\n")
        assert values == {"corpus": "in.tok", "out": "outdir"}

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            read_kv_config("corpus in.tok")

    def test_unknown_key_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            read_kv_config("# run\ncorpus = in.tok\ncorpsu = typo.tok\n", "run.conf")

    def test_repeated_key_names_second_line(self):
        with pytest.raises(ParseError) as err:
            read_kv_config("corpus = a.tok\n# again\ncorpus = b.tok\n", "run.conf")
        assert err.value.line == 3 and err.value.path == "run.conf"
        assert "duplicate config key 'corpus'" in str(err.value)


# Lines every line-oriented reader skips: blank, only whitespace (a tab and
# U+3000), a comment, an indented comment, and an empty line that \x0c ends.
SKIPPED = "\n\t　\n# comment\n  # comment\n\x0c"


@pytest.mark.parametrize("reader", [
    load_designator_lexicon, load_concept_lexicon, load_concept_map, read_kv_config,
], ids=lambda r: r.__name__)
def test_readers_skip_the_same_lines(reader):
    with pytest.raises(ParseError) as err:
        reader(SKIPPED + "X\n", "f")
    assert (err.value.path, err.value.line) == ("f", 6)


def test_mid_line_hash_is_data():
    assert read_kv_config("out = a#b  # not a comment\n") == {"out": "a#b  # not a comment"}
