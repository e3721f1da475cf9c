"""Low-level helpers for the structured key = value configuration text.

Scene files are plain text: one ``key = value`` statement per line,
with ``;`` allowed as an additional separator and ``#`` starting a
comment.  Values are numbers, bare words (possibly call-like, e.g.
``circle(6.28)``), or bracketed lists whose leaves are kept as raw
strings so that coefficient expressions survive untouched.
"""

from __future__ import annotations

from .errors import ConfigError


def split_statements(text):
    """Split config text into (key, raw_value, line_number) triples."""
    statements = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        for piece in _split_outside_brackets(line, ";"):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ConfigError("line %d: expected key = value, got %r"
                                  % (lineno, piece))
            key, _, raw = piece.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError("line %d: empty key" % lineno)
            statements.append((key, raw.strip(), lineno))
    return statements


def _split_outside_brackets(text, sep):
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "[(":
            depth += 1
        elif c in "])":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_value(raw, lineno=0):
    """Parse a raw value: nested lists stay lists of raw leaf strings."""
    raw = raw.strip()
    if not raw:
        raise ConfigError("line %d: empty value" % lineno)
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError("line %d: unbalanced brackets in %r" % (lineno, raw))
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [parse_value(item, lineno)
                for item in _split_outside_brackets(inner, ",")]
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1].strip()
    number = _try_number(raw)
    if number is not None:
        return number
    return raw


def _try_number(raw):
    try:
        value = float(raw)
    except ValueError:
        return None
    if value.is_integer() and "." not in raw and "e" not in raw.lower():
        return int(value)
    return value


def config_float(raw, key):
    """A parsed value as a float; ConfigError naming key if it is not a
    number."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError("%s = %r is not a number" % (key, raw)) from None


def config_int(raw, key):
    """A parsed value as an int; ConfigError naming key if it is not a
    whole number."""
    value = config_float(raw, key)
    if not value.is_integer():
        raise ConfigError("%s = %r is not an integer" % (key, raw))
    return raw if isinstance(raw, int) else int(value)
