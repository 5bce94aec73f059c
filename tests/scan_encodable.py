"""Reference encodability check: each field tested on its own.

scan_check_encodable is how compacts.fileformats refused an event record
before it took the canonical encoding itself as the check. It tests each text
field for surrogates, logical_ts for the u64 range and each attribute value
for text, boolean or i64, and builds its messages for every field as it goes.
Tests hold the encoding's accept/refuse verdicts equal to it.
"""

from __future__ import annotations

import re

from compacts.fileformats import DataFormatError
from compacts.ledger import Event


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataFormatError(message)


def _is_u64(value) -> bool:
    return type(value) is int and 0 <= value < 2**64  # a bool is not one


_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_text(value) -> bool:
    """A string UTF-8 can encode: JSON admits lone surrogates, which it cannot."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def scan_check_encodable(event: Event, where: str) -> None:
    """Reject an event the canonical serialization cannot encode: the text
    fields must be UTF-8 strings, logical_ts an unsigned and an integer
    attribute a signed 64-bit integer."""
    texts = (event.event_id, event.event_type, event.emitter)
    _require(all(map(_is_text, texts)), f"{where}: {texts!r} must all be text")
    ts = event.logical_ts
    _require(_is_u64(ts), f"{where}: logical_ts {ts!r} is not in [0, 2**64)")
    for name, value in event.attributes:
        encodable = _is_text(value) or (isinstance(value, int) and -(2**63) <= value < 2**63)
        _require(
            _is_text(name) and encodable,
            f"{where}: attribute {name!r}={value!r} is not text, boolean or i64",
        )
