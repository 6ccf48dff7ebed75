"""Pinned query-key fingerprints: the certificate store's addresses.

A key's fingerprint is the content address of its stored answer.  If a
refactor of the key builders moved any fingerprint, every existing
store would silently go cold, so each query kind is pinned here at its
default parameters and at one non-default parameter set.
"""

import pytest

from repro.service import (
    QUERY_KINDS,
    benor_run_key,
    campaign_key,
    detector_run_key,
    flp_key,
    gst_run_key,
    lease_run_key,
    register_search_key,
    valency_key,
)

#: kind -> (defaults key, non-default key)
KEYS = {
    "flp-analysis": (
        lambda: flp_key("quorum-vote"),
        lambda: flp_key("eager-majority", n=3, stall_stages=8),
    ),
    "valency": (
        lambda: valency_key("quorum-vote", 2, (0, 1)),
        lambda: valency_key("eager-majority", 3, (1, 1, 0)),
    ),
    "register-search": (
        lambda: register_search_key(),
        lambda: register_search_key(depth=1),
    ),
    "chaos-campaign": (
        lambda: campaign_key(None),
        lambda: campaign_key(
            ("lcr-ring", "floodset-crash"),
            runs=7,
            master_seed=3,
            shrink=False,
            shrink_checks=32,
        ),
    ),
    "detector-run": (
        lambda: detector_run_key(),
        lambda: detector_run_key(
            atoms=(("split", 3, 12), ("down", 6, 3)),
            seed=5,
            n=5,
            horizon=30,
            heartbeat_every=2,
            initial_timeout=3,
            adaptive=False,
            jitter=0,
        ),
    ),
    "lease-run": (
        lambda: lease_run_key(),
        lambda: lease_run_key(
            atoms=[("split", 6, 12)],
            seed=2,
            n=5,
            horizon=40,
            lease_len=6,
            renew_margin=1,
            staleness_bound=5,
            write_every=2,
            read_every=4,
            buggy_no_quorum=True,
        ),
    ),
    "benor-run": (
        lambda: benor_run_key(),
        lambda: benor_run_key(
            atoms=(3, 1, ("crash", 5, 2)),
            seed=17,
            n=5,
            t=2,
            inputs=[0, 1, 0, 1, 1],
            biased_coin=True,
            max_events=300,
        ),
    ),
    "gst-run": (
        lambda: gst_run_key(),
        lambda: gst_run_key(
            atoms=(("gst", 4), ("delay", 0, (0, 1), 2)),
            seed=5,
            inputs=[1, 0, 1],
            t=1,
            max_rounds=16,
            default_gst=9,
        ),
    ),
}

PINNED = {
    "flp-analysis": (
        "2817edd8de7726fd4184e26f234a17a611f2514c34a7cadb9a0138949abba86c",
        "a234f08fc60638f96e18c7f0877ee4849bfea551b85a8585c945235fc16b114e",
    ),
    "valency": (
        "df13ea046acd6b03428bf63dc383a71c1376fe4a7c6ec057072e6a02d34b8bd2",
        "19f94313652c223949365f845c0edb385f56e846b8a99c618139f24d2dedfdec",
    ),
    "register-search": (
        "d3b0a211760ee1bdb0fdd76831405152df56a262a652cce37ba05ae77a5c91a6",
        "039246e37cbd7f8bc952f27851d7642fee1a51ef1671e17900aa202a583229fc",
    ),
    "chaos-campaign": (
        "d2165a24f8bc2118e315c162abc0bc218abeb56356585abc678cc79f56b505e3",
        "8e4d153ae6ae993e4643a33abd2e0b8102479bb167d288b9e58bc3f7654949b0",
    ),
    "detector-run": (
        "3f05446e909af018f8bbbf34b01612a962acf127491ce842aa78b3f90c692a3a",
        "697108820f35089f838c4edc2e7f310292a489020aa3c3461391eb93b7592d90",
    ),
    "lease-run": (
        "765afcbfac7b2a4cfec74afa85efdd6a1254463f6b6b5315d854422b47229dc3",
        "8b5ab4a3edc05d5103bf2abfdc76ad80bab00ef6aaaa848ba335a5d05b15ebec",
    ),
    "benor-run": (
        "b6c23f74c31d015f5ac2099b85aeaa7d22d62632f25049a3f1c7da036f4cc6af",
        "b2589ccf2a42759f65f1b76a750b7a1f02f03c678336b37a54bf4012e6582db0",
    ),
    "gst-run": (
        "2f82701700a5711286cb78f02b7931238f06079bd3b125ef352dccff4a859c09",
        "f1c870c38fc6154f760bb0b1cbd241787406169ee71debd4678d34954eea398e",
    ),
}


def test_every_query_kind_is_pinned():
    assert sorted(KEYS) == sorted(PINNED) == sorted(QUERY_KINDS)


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_key_fingerprints_are_pinned(kind):
    defaults, custom = KEYS[kind]
    assert defaults().kind == custom().kind == kind
    assert (defaults().fingerprint(), custom().fingerprint()) == PINNED[kind]
