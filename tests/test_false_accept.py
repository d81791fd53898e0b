"""Adversary false accepts per attack under OCR noise, one row per attack and profile.

Each row runs one attack over a seed range and checks that the number of
attacks that end with the adversary authorized lies within 3 sigma of the
row's model rate, as `test_11` does for homograph errors. A model rate of
zero allows no authorization at all.
"""

import math

import pytest

from photoauth.simulator import run_rtp_attack
from photoauth.synth import DEFAULT_NOISY_PROFILE, ORACLE_PROFILE

from test_simulator import adversary_authorized

SEEDS = range(3000)

# "micr0soft.com" reads as the genuine name only when OCR turns its "0" into
# "o" (CONFUSION_MAP["0"] == "o", the only choice) and leaves the other 12
# characters alone.
_SUB = DEFAULT_NOISY_PROFILE.ocr.sub_rate
_DIGIT_SWAP_RATE = _SUB * (1 - _SUB) ** 12

ROWS = [
    pytest.param("micr0soft.com", DEFAULT_NOISY_PROFILE, _DIGIT_SWAP_RATE, id="rtp-micr0soft-noisy"),
    pytest.param("micr0soft.com", ORACLE_PROFILE, 0.0, id="rtp-micr0soft-oracle"),
]


@pytest.mark.parametrize("fake_domain, profile, rate", ROWS)
def test_adversary_authorizations_within_model(fake_domain, profile, rate):
    wins = sum(
        adversary_authorized(run_rtp_attack(seed, fake_domain=fake_domain, detector_profile=profile))
        for seed in SEEDS
    )
    n = len(SEEDS)
    sigma = math.sqrt(n * rate * (1 - rate))
    assert abs(wins - n * rate) <= 3 * sigma, (
        f"{wins} of {n} authorized, model {n * rate:.1f} ± {3 * sigma:.1f}"
    )
