import encodings.punycode
import random
import tracemalloc
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoauth.domain import (
    DomainError,
    DomainName,
    HOSTNAME_CACHE_SIZE,
    HOSTNAME_CACHE_TEXT_MAX_LEN,
    HOSTNAME_MAX_LEN,
    InvalidLabel,
    LABEL_MAX_LEN,
    NoHostname,
    confusable_mutate,
    extract_hostname,
    to_punycode,
)

from _bootstring import punycode_decode


class TestPunycode:
    def test_cyrillic_a_spoof(self):
        assert to_punycode("аpple") == "xn--pple-43d"

    def test_umlaut(self):
        assert to_punycode("bücher") == "xn--bcher-kva"

    def test_ascii_passthrough_lowercases(self):
        assert to_punycode("Apple") == "apple"
        assert to_punycode("already-ascii") == "already-ascii"

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidLabel):
            to_punycode("")

    def test_all_nonascii(self):
        # No basic code points means no delimiter in the encoding.
        encoded = to_punycode("правда")
        assert encoded.startswith("xn--")
        assert "-" not in encoded[4:]
        assert punycode_decode(encoded) == "правда"

    def test_overflow(self):
        label = "\u0081" * 2100 + "\U0010FFFF"
        with pytest.raises(InvalidLabel):
            to_punycode(label)

    @pytest.mark.parametrize(
        "text",
        [
            "".join(chr(0x4E00 + i) for i in range(LABEL_MAX_LEN + 1)),
            ".".join(chr(0x4E00 + i) * 3 for i in range(HOSTNAME_MAX_LEN // 4 + 1)),
        ],
        ids=["label", "hostname"],
    )
    def test_overlong_text_never_reaches_the_codec(self, monkeypatch, text):
        encoded = []
        encode = encodings.punycode.punycode_encode
        monkeypatch.setattr(
            encodings.punycode, "punycode_encode", lambda s: encoded.append(s) or encode(s)
        )
        with pytest.raises(InvalidLabel):
            extract_hostname.__wrapped__(text)
        assert encoded == []

    def test_matches_stdlib_codec(self):
        for label in ("аpple", "bücher", "münchen", "你好world"):
            expected = "xn--" + label.encode("punycode").decode("ascii")
            assert to_punycode(label) == expected

    @given(
        st.lists(
            st.one_of(
                st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
                st.characters(min_codepoint=0xA1, max_codepoint=0x24F),
                st.characters(min_codepoint=0x390, max_codepoint=0x44F),
                st.characters(min_codepoint=0x4E00, max_codepoint=0x4FFF),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=200)
    def test_round_trip_and_stdlib_agreement(self, chars):
        label = "".join(chars).lower()
        encoded = to_punycode(label)
        if all(ord(c) < 0x80 for c in label):
            assert encoded == label
            return
        assert encoded.startswith("xn--")
        assert punycode_decode(encoded) == label
        assert encoded == "xn--" + label.encode("punycode").decode("ascii")


class TestExtractHostname:
    def test_full_url(self):
        name = extract_hostname("HTTP://WWW.Example.COM:443/a?b")
        assert name.labels == ("www", "example", "com")
        assert str(name) == "www.example.com"

    def test_bare_domain(self):
        assert extract_hostname("microsoft.com").labels == ("microsoft", "com")

    def test_short_link_path_stripped(self):
        name = extract_hostname("microsoft.com/c/6895272031")
        assert str(name) == "microsoft.com"

    def test_userinfo_stripped(self):
        assert str(extract_hostname("https://user:pw@example.com/x")) == "example.com"

    def test_fragment_and_query(self):
        assert str(extract_hostname("example.com?q=1#frag")) == "example.com"

    def test_trailing_dot(self):
        assert extract_hostname("example.com.").labels == ("example", "com")

    def test_unicode_label_punycoded(self):
        assert str(extract_hostname("аpple.com")) == "xn--pple-43d.com"

    def test_only_the_first_token_is_read(self):
        assert str(extract_hostname("visit  example.com today")) == "visit"
        with pytest.raises(InvalidLabel):
            extract_hostname("*** example.com today")

    @pytest.mark.parametrize("text", ["", "   ", "http://", "https:///path"])
    def test_no_hostname(self, text):
        with pytest.raises(NoHostname):
            extract_hostname(text)

    @pytest.mark.parametrize("text", ["ex..ample.com", "a_b.com", "x" * 64 + ".com"])
    def test_invalid_label(self, text):
        with pytest.raises(InvalidLabel):
            extract_hostname(text)

    def test_total_length_cap(self):
        long_host = ".".join(["a" * 40] * 7)
        with pytest.raises(InvalidLabel):
            extract_hostname(long_host)

    def test_idempotent(self):
        for raw in ("HTTP://WWW.Example.COM:443/a?b", "аpple.com", "a.b.c.d"):
            once = extract_hostname(raw)
            twice = extract_hostname(str(once))
            assert once.labels == twice.labels

    @pytest.mark.parametrize(
        "url",
        [
            "http://example.com/path",
            "https://Sub.Domain.ORG:8080/x?y=1",
            "http://user@host.net/",
            "https://a.b.c.d.e.co.uk/deep/path#f",
        ],
    )
    def test_against_urllib_oracle(self, url):
        expected = urllib.parse.urlparse(url).hostname
        assert str(extract_hostname(url)) == expected

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100)
    def test_idempotence_property(self, labels):
        raw = ".".join(labels)
        assert str(extract_hostname(str(extract_hostname(raw)))) == str(extract_hostname(raw))


def _parse_outcome(parse, text):
    try:
        name = parse(text)
    except DomainError as exc:
        return type(exc)
    return name.labels


class TestHostnameCache:
    @given(
        st.one_of(
            st.text(max_size=30),
            st.text(alphabet="abcü.:/@?#-_ ", max_size=30),
            st.sampled_from(["microsoft.com", "bücher.de", "http://", "a..b", "x" * 64]),
        )
    )
    @settings(max_examples=300)
    def test_cached_agrees_with_uncached(self, text):
        # Twice: the second call is the cache hit (or a repeated failure).
        want = _parse_outcome(extract_hostname.__wrapped__, text)
        assert _parse_outcome(extract_hostname, text) == want
        assert _parse_outcome(extract_hostname, text) == want

    def test_cache_is_bounded(self):
        info = extract_hostname.cache_info()
        assert info.maxsize is not None
        assert info.maxsize == HOSTNAME_CACHE_SIZE <= 1024
        for i in range(3 * HOSTNAME_CACHE_SIZE):
            extract_hostname(f"host{i}.example")
        assert extract_hostname.cache_info().currsize <= HOSTNAME_CACHE_SIZE

    def test_hit_returns_the_same_frozen_name(self):
        a = extract_hostname("https://Example.com/x")
        assert extract_hostname("https://Example.com/x") is a
        with pytest.raises(AttributeError):
            a.labels = ("evil", "com")

    def test_long_texts_are_not_cached(self):
        text = "a.com/" + "x" * HOSTNAME_CACHE_TEXT_MAX_LEN
        before = extract_hostname.cache_info()
        assert str(extract_hostname(text)) == "a.com"
        after = extract_hostname.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_texts_up_to_the_limit_are_cached(self):
        text = "b.com/" + "x" * (HOSTNAME_CACHE_TEXT_MAX_LEN - 6)
        assert len(text) == HOSTNAME_CACHE_TEXT_MAX_LEN
        first = extract_hostname(text)
        assert extract_hostname(text) is first

    @staticmethod
    def _retained_after(texts) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for text in texts:
                extract_hostname(text)
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    def test_long_valid_texts_retain_no_memory(self):
        # Near the HTTP body limit; caching them would keep ~30 MB alive.
        texts = (f"h{i}.com/" + "x" * 60_000 for i in range(2 * HOSTNAME_CACHE_SIZE))
        assert self._retained_after(texts) < 256 * 1024

    def test_full_cache_of_worst_case_names_stays_small(self):
        # A cacheable text with the most label objects: 127 one-letter labels.
        extract_hostname.cache_clear()
        texts = (
            (f"{i:03d}" + ".a" * 130)[:253].rstrip(".") for i in range(HOSTNAME_CACHE_SIZE)
        )
        assert self._retained_after(texts) < 4 * 1024 * 1024
        assert extract_hostname.cache_info().currsize == HOSTNAME_CACHE_SIZE

    def test_failures_are_not_cached(self):
        before = extract_hostname.cache_info()
        for _ in range(2):
            with pytest.raises(InvalidLabel):
                extract_hostname("a_b.com")
        after = extract_hostname.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)


class TestDomainName:
    def test_equality_ignores_original_text(self):
        a = extract_hostname("https://example.com/x")
        b = extract_hostname("EXAMPLE.com")
        assert a == b
        assert hash(a) == hash(b)

    def test_www_is_not_stripped(self):
        assert extract_hostname("www.example.com") != extract_hostname("example.com")
        assert extract_hostname("www.example.com") not in {extract_hostname("example.com")}

    def test_validation(self):
        with pytest.raises(InvalidLabel):
            DomainName(labels=())
        with pytest.raises(InvalidLabel):
            DomainName(labels=("UPPER", "com"))
        with pytest.raises(InvalidLabel):
            DomainName(labels=("with space", "com"))


class TestConfusableMutate:
    def test_single_substitution_is_in_enumeration(self):
        name = extract_hostname("google.com")
        rules = {"o": "0"}
        oracle = set()
        text = "google.com"
        for i, ch in enumerate(text):
            if ch in rules:
                oracle.add(text[:i] + rules[ch] + text[i + 1 :])
        for seed in range(50):
            mutated = str(confusable_mutate(name, rules, random.Random(seed)))
            assert mutated in oracle

    def test_deterministic(self):
        name = extract_hostname("paypal.com")
        a = confusable_mutate(name, {"l": "1"}, random.Random(42))
        b = confusable_mutate(name, {"l": "1"}, random.Random(42))
        assert a == b

    def test_no_applicable_rule(self):
        name = extract_hostname("zzz.com")
        assert confusable_mutate(name, {"q": "g"}, random.Random(1)) == name

    def test_deletion_rule(self):
        name = extract_hostname("www.example.com")
        out = confusable_mutate(name, {".": ""}, random.Random(5))
        assert str(out) in ("wwwexample.com", "www.examplecom")

    def test_accepts_rng_instance(self):
        rng = random.Random(9)
        name = extract_hostname("google.com")
        first = str(confusable_mutate(name, {"o": "0"}, rng))
        second = str(confusable_mutate(name, {"o": "0"}, rng))
        both = {first, second}
        assert both <= {"g0ogle.com", "go0gle.com", "google.c0m"}
