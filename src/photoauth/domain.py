"""Domain name handling: hostname extraction, punycode, lookalike mutation.

The verifier compares the domain photographed in a browser address bar
against the server's own accepted names. Comparison happens on the
ASCII (punycode) form so visually confusable Unicode spoofs normalize
to distinct strings instead of distinct glyphs.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from typing import NamedTuple

HOSTNAME_MAX_LEN = 253
LABEL_MAX_LEN = 63
# Parsed hostnames kept by `extract_hostname`. A handful of names recur on
# every photo. Two bounds keep attacker-chosen OCR text from growing memory:
# the number of entries, and the length of a cached text, that of a
# full-length hostname with "https://", ":65535" and a trailing "/" and ".".
# Longer texts are parsed every time.
HOSTNAME_CACHE_SIZE = 256
HOSTNAME_CACHE_TEXT_MAX_LEN = HOSTNAME_MAX_LEN + 16

_LDH_LABEL = re.compile(r"^[a-z0-9-]+$")
_SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*://", re.IGNORECASE)
_PORT_SUFFIX = re.compile(r":\d*$")
_PATH_START = re.compile(r"[/?#]")


class DomainError(ValueError):
    pass


class NoHostname(DomainError):
    """Raised when no hostname can be extracted from a piece of text."""


class InvalidLabel(DomainError):
    """Raised when a hostname label violates length or charset rules."""


class _DomainFields(NamedTuple):
    labels: tuple[str, ...]


class DomainName(_DomainFields):
    """Canonical hostname: lowercase ASCII labels, already punycoded."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...]):
        if not labels:
            raise InvalidLabel("hostname needs at least one label")
        for label in labels:
            if not label or len(label) > LABEL_MAX_LEN:
                raise InvalidLabel(f"label length out of range: {label!r}")
            if not _LDH_LABEL.match(label):
                raise InvalidLabel(f"label has characters outside letters/digits/hyphen: {label!r}")
        if len(".".join(labels)) > HOSTNAME_MAX_LEN:
            raise InvalidLabel(f"hostname longer than {HOSTNAME_MAX_LEN} chars")
        return tuple.__new__(cls, (labels,))

    def __str__(self) -> str:
        return ".".join(self.labels)


def to_punycode(label: str) -> str:
    """Encode one hostname label to its ASCII form.

    Pure-ASCII labels come back unchanged (lowercased). Labels with any
    other code point go through the stdlib's raw Punycode codec (RFC 3492)
    and are prefixed with "xn--". The "idna" codec is not used: its
    nameprep step (NFKC, "ß" -> "ss") would change which names match.

    Raises:
        InvalidLabel: the label is empty or longer than `LABEL_MAX_LEN`.
    """
    # Lowercasing never shortens a label and encoding never shortens one,
    # so checking first rejects nothing that used to pass and keeps the
    # codec, quadratic in label length, off long attacker-chosen text.
    if not label or len(label) > LABEL_MAX_LEN:
        raise InvalidLabel(f"label length out of range: {len(label)}")
    label = label.lower()
    if label.isascii():
        return label
    return "xn--" + label.encode("punycode").decode("ascii")


def _parse_token(token: str) -> DomainName:
    raw = token
    token = _SCHEME.sub("", token)
    # Userinfo only appears before the first path separator.
    authority = _PATH_START.split(token, maxsplit=1)[0]
    authority = authority.rpartition("@")[2]
    authority = _PORT_SUFFIX.sub("", authority).removesuffix(".")
    if not authority:
        raise NoHostname(f"no hostname in {raw!r}")
    if len(authority) > HOSTNAME_MAX_LEN:
        raise InvalidLabel(f"hostname longer than {HOSTNAME_MAX_LEN} chars")
    labels = tuple(to_punycode(label) for label in authority.split("."))
    return DomainName(labels=labels)


def _parse_hostname(text: str) -> DomainName:
    # Only the first token is read: an address bar shows one URL, and a
    # later token must not buy another round of label encoding.
    tokens = text.split(maxsplit=1)
    if not tokens:
        raise NoHostname("empty text")
    return _parse_token(tokens[0])


_parse_hostname_cached = lru_cache(maxsize=HOSTNAME_CACHE_SIZE)(_parse_hostname)


def extract_hostname(text: str) -> DomainName:
    """Pull a canonical hostname out of address-bar text.

    Strips scheme, userinfo, port, path, query and fragment, lowercases,
    and punycodes each label. Only the first whitespace-separated token
    is read; the rest of the text is ignored.

    Results for texts of at most `HOSTNAME_CACHE_TEXT_MAX_LEN` characters
    are cached (`HOSTNAME_CACHE_SIZE` entries, least recently used dropped
    first); they are frozen, so callers share them safely. Exceptions are
    not cached.

    Raises:
        NoHostname: nothing parseable remains.
        InvalidLabel: a label breaks LDH or length rules.
    """
    if len(text) <= HOSTNAME_CACHE_TEXT_MAX_LEN:
        return _parse_hostname_cached(text)
    return _parse_hostname(text)


# The uncached parser and the cache's counters, named as `lru_cache` names them.
extract_hostname.__wrapped__ = _parse_hostname
extract_hostname.cache_info = _parse_hostname_cached.cache_info
extract_hostname.cache_clear = _parse_hostname_cached.cache_clear


def confusable_mutate(
    domain: DomainName, rules: dict[str, str], rng: random.Random
) -> DomainName:
    """Substitute one lookalike character into a domain name.

    Picks one position whose character has a rule and applies the
    replacement. Deterministic for a given rng state. Returns the input
    unchanged when no position matches any rule.
    """
    text = str(domain)
    positions = [i for i, ch in enumerate(text) if ch in rules]
    if not positions:
        return domain
    [i] = rng.sample(positions, 1)
    return extract_hostname(text[:i] + rules[text[i]] + text[i + 1 :])
