"""The line grammar of the four text formats, as README's Conventions give
it, and their bundled files. An error for a line starts "line N: "."""

import math
import os


def walk(text: str, header, handle) -> None:
    """Call handle(lineno, words) on each line; a given header comes first."""
    first = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        try:
            if header and (words[0] == header) != first:
                raise ValueError(f"expected the {header} header first" if first
                                 else f"duplicate {header} line")
            handle(lineno, words)
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        first = False
    if header and first:
        raise ValueError(f"missing {header} header")


def fields(words: list, *kinds) -> tuple:
    """Convert the words after the directive words[0], one per kind."""
    if len(words) != len(kinds) + 1:
        raise ValueError(f"{words[0]} takes {len(kinds)} fields, got "
                         f"{len(words) - 1}")
    return tuple(kind(word) for kind, word in zip(kinds, words[1:]))


def keyed(words, kinds: dict, values: dict, required=()) -> dict:
    """Convert `key=value` words by kinds[key] into values and return it;
    spaces around `=` are dropped and a bad value names its key."""
    for word in words:
        key, eq, value = (part.strip() for part in word.partition("="))
        if not eq or key not in kinds:
            raise ValueError(f"expected key=value with a key of "
                             f"{', '.join(kinds)}; got {word!r}")
        if key in values:
            raise ValueError(f"repeated key {key!r}")
        try:
            values[key] = kinds[key](value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    missing = [key for key in required if key not in values]
    if missing:
        raise ValueError(f"missing key {', '.join(missing)}")
    return values


def finite(word: str) -> float:
    value = float(word)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {word}")
    return value


def preset_path(name: str) -> str:
    """The bundled preset file of that name. A caller that takes paths tries
    the name as one first, so a name that is neither is the error."""
    path = os.path.join(os.path.dirname(__file__), "presets", name + ".txt")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{name!r} is neither a file nor a preset")
    return path
