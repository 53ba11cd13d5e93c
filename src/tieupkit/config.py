"""Plain key-value config files (``key = value``, ``#`` comments)."""

from .errors import ParseError

# Every key ``tieupkit extract`` reads from a config file.
CONFIG_KEYS = frozenset(
    {"corpus", "out", "concepts", "patterns", "designators", "concept_map", "dump"}
)


def read_kv_config(text: str, path: str | None = None) -> dict[str, str]:
    """Parse ``key = value`` lines; a key outside CONFIG_KEYS, or one given
    twice, is an error."""
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
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", lineno, path)
        values[key] = value.strip()
    return values

