"""Declared specs for the JSON records lexrag reads, and the one check that reads them.

A spec is a tuple of rows ``(key, types, required, test, phrase)``, one per key of a JSON
object, after JSON Schema (IETF draft 2020-12): the Python types ``json`` parses the value
to, matched exactly (JSON true is a bool, never an int), whether the key must be present,
a predicate the value must also pass (or None), and what the value must be, in words.
``check`` raises ``{where}: key 'k' is missing`` or ``{where}: key 'k' must be {phrase},
not {value!r}``, the repr cut at ``REPR_CHARS``. Each reader keeps its specs beside it.
Stdlib only.
"""

STRING = (str,)
INTEGER = (int,)
NUMBER = (int, float)
BOOLEAN = (bool,)
NULL = (type(None),)
ARRAY = (list,)
OBJECT = (dict,)

# rules that many rows share, a row less its key: ("query_id", *OPTIONAL_STRING)
REQUIRED_STRING = (STRING, True, None, "a string")
OPTIONAL_STRING = (STRING, False, None, "a string")
REQUIRED_OBJECT = (OBJECT, True, None, "an object")
# the most characters of a rejected value's repr that an error message shows
REPR_CHARS = 200


def check(record: dict, spec: tuple, where: str) -> dict:
    """``record``, once each key of ``spec`` holds what its row accepts; else a ValueError."""
    for key, types, required, test, phrase in spec:
        if key in record:
            value = record[key]
            if type(value) not in types or test is not None and not test(value):
                raise invalid(where, key, phrase, value)
        elif required:
            raise ValueError(f"{where}: key {key!r} is missing")
    return record


def invalid(where: str, key: str, phrase: str, value) -> ValueError:
    """``check``'s error for a value, which the checks that relate keys raise too; the
    value's repr is cut to ``REPR_CHARS`` characters and "…"."""
    shown = repr(value)
    if len(shown) > REPR_CHARS:
        shown = shown[:REPR_CHARS] + "…"
    return ValueError(f"{where}: key {key!r} must be {phrase}, not {shown}")
