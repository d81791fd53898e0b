"""Adversary false accepts per attack under OCR noise, one row per attack and profile.

Each row runs one attack over a seed range and checks that the number of
attacks that end with the adversary authorized lies within 3 sigma of the
row's model rate, as `test_11` does for homograph errors. A model rate of
zero allows no authorization at all.
"""

import math

import pytest

from photoauth.simulator import (
    ADVERSARY,
    Outcome,
    OutcomeKind,
    run_injection_attack,
    run_rtp_attack,
)
from photoauth.synth import DEFAULT_NOISY_PROFILE, ORACLE_PROFILE, AddrbarModel, DetectorProfile

from test_simulator import adversary_authorized


def rtp(fake_domain, relay_link=False):
    def run(seed, profile):
        return run_rtp_attack(seed, fake_domain=fake_domain, detector_profile=profile,
                              relay_link=relay_link)

    return run


def picture_in_picture(seed, profile):
    return run_injection_attack(seed, "picture-in-picture", detector_profile=profile)


# "micr0soft.com" reads as the genuine name only when OCR turns its "0" into
# "o" (CONFUSION_MAP["0"] == "o", the only choice) and leaves the other 12
# characters alone.
_SUB = DEFAULT_NOISY_PROFILE.ocr.sub_rate
_DIGIT_SWAP_RATE = _SUB * (1 - _SUB) ** 12

# A picture-in-picture page shows a second, fake bar that reads
# "microsoft.com". Detecting both bars asks for a retake, so the adversary
# wins only when the detector misses the real bar (miss), finds the fake
# one (1 - miss), does not cut it short (1 - cutoff), and OCR reads its 13
# characters unchanged (1 - sub)^13.
_MISSING = DetectorProfile(
    ocr=DEFAULT_NOISY_PROFILE.ocr,
    addrbar=AddrbarModel(**{**DEFAULT_NOISY_PROFILE.addrbar._asdict(), "miss_prob": 0.05}),
)
_MISS, _CUTOFF = _MISSING.addrbar.miss_prob, _MISSING.addrbar.cutoff_prob
_LONE_FAKE_BAR_RATE = _MISS * (1 - _MISS) * (1 - _CUTOFF) * (1 - _SUB) ** 13

ROWS = [
    pytest.param(rtp("micr0soft.com"), DEFAULT_NOISY_PROFILE, range(3000), _DIGIT_SWAP_RATE,
                 id="rtp-micr0soft-noisy"),
    pytest.param(rtp("micr0soft.com"), ORACLE_PROFILE, range(3000), 0.0, id="rtp-micr0soft-oracle"),
    pytest.param(picture_in_picture, DEFAULT_NOISY_PROFILE, range(2000), 0.0, id="pip-noisy"),
    pytest.param(picture_in_picture, _MISSING, range(2000), _LONE_FAKE_BAR_RATE,
                 id="pip-noisy-miss-0.05"),
    # A known hole: `POST /login` hands the relaying proxy the short link next
    # to its cookie, so one click of it passes cookie colocation and no photo
    # is asked for. Every attack wins. Keeping the link off the login answer
    # (ROADMAP item 8) moves this row to 0.
    pytest.param(rtp("rnicrosoft.com", relay_link=True), ORACLE_PROFILE, range(200), 1.0,
                 id="rtp-relay-link-oracle"),
]


@pytest.mark.parametrize("runner, profile, seeds, rate", ROWS)
def test_adversary_authorizations_within_model(runner, profile, seeds, rate):
    wins = mislabelled = 0
    for seed in seeds:
        report = runner(seed, profile)
        won = adversary_authorized(report)
        wins += won
        # The outcome names every authorization the trail holds.
        mislabelled += won != (report.outcome == Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
    assert mislabelled == 0
    n = len(seeds)
    sigma = math.sqrt(n * rate * (1 - rate))
    assert abs(wins - n * rate) <= 3 * sigma, (
        f"{wins} of {n} authorized, model {n * rate:.1f} ± {3 * sigma:.1f}"
    )
