"""Plain key-value config files (``key = value``, ``#`` comments)."""

from .discourse import DiscourseConfig
from .errors import ParseError

_PRONOUN_KEYS = ("pronoun_both", "pronoun_near", "pronoun_self")

# Every key ``tieupkit extract`` reads from a config file.
CONFIG_KEYS = frozenset(
    {"corpus", "out", "concepts", "patterns", "designators", "concept_map", "dump",
     "subject_markers", *_PRONOUN_KEYS}
)


def read_kv_config(text: str, path: str | None = None) -> dict[str, str]:
    """Parse ``key = value`` lines; a key outside CONFIG_KEYS is an error."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ParseError(f"expected 'key = value', got {stripped!r}", lineno, path)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", lineno, path)
        values[key] = value.strip()
    return values


def discourse_config_from(values: dict[str, str]) -> DiscourseConfig:
    """Build a DiscourseConfig from config keys, defaulting the rest.

    Recognized keys: ``pronoun_both``, ``pronoun_near``, ``pronoun_self``,
    and ``subject_markers`` (whitespace- or comma-separated).
    """
    kwargs = {}
    for key in _PRONOUN_KEYS:
        if values.get(key):
            kwargs[key] = values[key]
    if values.get("subject_markers"):
        markers = values["subject_markers"].replace(",", " ").split()
        kwargs["subject_markers"] = tuple(markers)
    return DiscourseConfig(**kwargs)
