import pytest

from tieupkit.concepts import load_concept_lexicon
from tieupkit.errors import ParseError
from tieupkit.patterns import load_concept_map
from tieupkit.tokens import load_designator_lexicon


# Lines every line-oriented reader skips: blank, only whitespace (a tab and
# U+3000), a comment, an indented comment, and an empty line that \x0c ends.
SKIPPED = "\n\t　\n# comment\n  # comment\n\x0c"


@pytest.mark.parametrize("reader", [
    load_designator_lexicon, load_concept_lexicon, load_concept_map,
], ids=lambda r: r.__name__)
def test_readers_skip_the_same_lines(reader):
    with pytest.raises(ParseError) as err:
        reader(SKIPPED + "X\n", "f")
    assert (err.value.path, err.value.line) == ("f", 6)


def test_mid_line_hash_is_data():
    lexicon = load_designator_lexicon("A#社  # not a comment\tcompany\n")
    assert lexicon.entries == {"A#社  # not a comment": "company"}
