"""The query service: store hits, live fallbacks, dedup, and identity.

The acceptance-grade properties live here: a warm store answers with
zero live computation and counters to prove it; a corrupted entry falls
back to live search *and lands on the same final answer*; store-backed
certificate constructors are field-identical across the live, hit, and
store-free paths; a campaign reconstructed from a store hit writes
byte-identical counterexample artifacts; budget-interrupted results are
returned but never cached.
"""

import os

import pytest

from repro.asynchronous.flp import QuorumVote, WaitForAll, flp_certificate
from repro.chaos.campaign import report_to_payload, write_artifacts
from repro.chaos.targets import target_registry
from repro.core.budget import Budget
from repro.registers.exhaustive import register_consensus_certificate
from repro.service import (
    CertificateStore,
    QueryKey,
    QueryService,
    campaign_key,
    flp_key,
    register_search_key,
    run_campaign_cached,
    valency_key,
)
from repro.service.__main__ import main as service_main


@pytest.fixture
def store(tmp_path):
    return CertificateStore(str(tmp_path / "certs"))


class TestResolution:
    def test_miss_then_hit(self, store):
        service = QueryService(store)
        key = flp_key("first-message-wins", n=2)
        cold = service.resolve(key)
        assert cold.source == "live" and cold.complete
        assert service.live == 1

        warm = service.resolve(key)
        assert warm.source == "store"
        assert warm.result == cold.result
        assert service.live == 1  # no second computation
        assert store.stats["hits"] == 1

    def test_fresh_service_same_store_all_hits(self, store):
        key = flp_key("first-message-wins", n=2)
        QueryService(store).resolve(key)
        # A new process, in effect: new service, same directory.
        reread = CertificateStore(store.root)
        second = QueryService(reread)
        answer = second.resolve(key)
        assert answer.source == "store"
        assert second.live == 0
        assert reread.stats == {
            "hits": 1, "misses": 0, "corrupt": 0, "puts": 0,
        }

    def test_submit_dedups_in_flight_requests(self, store):
        service = QueryService(store)
        key = flp_key("first-message-wins", n=2)
        first = service.submit(key)
        second = service.submit(flp_key("first-message-wins", n=2))
        assert first is second
        assert service.deduped == 1
        answer = second.result()
        assert first.done and second.done
        assert answer.source == "live"
        assert service.live == 1  # one computation served both handles

    def test_resolve_many_preserves_input_order(self, store):
        service = QueryService(store)
        keys = [
            valency_key("quorum-vote", 2, (0, 1)),
            flp_key("first-message-wins", n=2),
            valency_key("quorum-vote", 2, (1, 1)),
        ]
        answers = service.resolve_many(keys)
        assert [a.key for a in answers] == keys
        assert answers[0].result["bivalent"] is True
        assert answers[2].result["bivalent"] is False

    def test_parallel_batched_misses_match_serial(self, tmp_path):
        """Two or more misses at ``workers=2`` fan out across the pool;
        answers, sources and stored entries equal the serial run's."""
        keys = [
            campaign_key(("floodset-truncated-crash",), runs=2,
                         shrink_checks=8),
            flp_key("first-message-wins", n=2),
            campaign_key(("lcr-ring",), runs=2, shrink_checks=8),
        ]
        runs = {}
        for workers in (1, 2):
            store = CertificateStore(str(tmp_path / f"w{workers}"))
            service = QueryService(store, workers=workers)
            answers = service.resolve_many(keys)
            entries = {}
            for _kind, fingerprint in store.entries():
                path = store._object_path(fingerprint)
                with open(path, "rb") as handle:
                    entries[fingerprint] = handle.read()
            runs[workers] = (
                [(a.key, a.result, a.source, a.complete) for a in answers],
                entries,
                service.live,
            )
        serial, parallel = runs[1], runs[2]
        assert [source for _k, _r, source, _c in serial[0]] == ["live"] * 3
        assert len(serial[1]) == 3
        assert parallel == serial

    def test_unknown_kind_rejected_at_submit(self, store):
        service = QueryService(store)
        with pytest.raises(ValueError):
            service.submit(QueryKey.make("tarot-reading", question="why"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_engine_fails_only_its_own_handle(self, tmp_path, workers):
        """One raising engine must not strand the rest of its batch: the
        good handle is answered and stored, the bad one re-raises."""
        store = CertificateStore(str(tmp_path / "certs"))
        service = QueryService(store, workers=workers)
        good = service.submit(flp_key("wait-for-all"))
        bad = service.submit(campaign_key(("no-such-target",), runs=1))
        service.drain()
        answer = good.result()
        assert answer.source == "live" and answer.complete
        assert store.stats["puts"] == 1
        assert QueryService(store).resolve(flp_key("wait-for-all")).source == "store"
        with pytest.raises(ValueError, match="no-such-target"):
            bad.result()

    def test_incomplete_result_returned_but_never_stored(self, store):
        service = QueryService(store, budget=Budget(max_steps=5))
        answer = service.resolve(register_search_key(depth=2))
        assert answer.source == "live"
        assert not answer.complete
        assert answer.result["candidates"] == 5  # the budgeted prefix
        assert store.stats["puts"] == 0
        # The store still has no answer: the next query recomputes.
        again = QueryService(store, budget=Budget(max_steps=5))
        assert again.resolve(register_search_key(depth=2)).source == "live"


class TestCorruptionFallback:
    def test_corrupted_entry_falls_back_to_live_with_same_answer(
        self, store
    ):
        key = flp_key("quorum-vote", n=2)
        service = QueryService(store)
        original = service.resolve(key)

        # Flip one character inside the stored entry body.
        path = store._object_path(key.fingerprint())
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        target = raw.index(b"agreement")
        raw[target] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(raw))

        recovered = QueryService(store)
        answer = recovered.resolve(key)
        assert answer.source == "live"  # verify failed -> recomputed
        assert store.stats["corrupt"] == 1
        assert answer.result == original.result  # same final answer
        # The recomputation repaired the entry on disk.
        healed = QueryService(CertificateStore(store.root))
        assert healed.resolve(key).source == "store"


class TestStoreBackedCertificates:
    def test_flp_certificate_identical_across_paths(self, store):
        live = flp_certificate(QuorumVote())          # no store
        cold = flp_certificate(QuorumVote(), store=store)   # miss + put
        warm = flp_certificate(QuorumVote(), store=store)   # hit
        assert store.stats["puts"] == 1
        assert store.stats["hits"] == 1
        for cert in (cold, warm):
            assert cert.claim == live.claim
            assert cert.technique == live.technique
            assert cert.details == live.details

    def test_flp_certificate_failure_modes_survive_the_store(self, store):
        cert = flp_certificate(WaitForAll(), store=store)
        assert cert.details["failure_mode"] == "blocks-under-crash"
        warm = flp_certificate(WaitForAll(), store=store)
        assert warm.details == cert.details

    def test_register_certificate_identical_across_paths(self, store):
        live = register_consensus_certificate(depth=1)
        cold = register_consensus_certificate(depth=1, store=store)
        warm = register_consensus_certificate(depth=1, store=store)
        assert store.stats["puts"] == 1 and store.stats["hits"] == 1
        for cert in (cold, warm):
            assert cert.claim == live.claim
            assert cert.candidates_checked == live.candidates_checked
            assert cert.details == live.details


class TestCampaignCaching:
    TARGETS = ("floodset-truncated-crash",)

    def _roster(self):
        registry = target_registry()
        return [registry[name] for name in self.TARGETS]

    def test_warm_campaign_is_byte_identical(self, store, tmp_path):
        roster = self._roster()
        cold, cold_source = run_campaign_cached(
            store, targets=roster, runs=4
        )
        warm, warm_source = run_campaign_cached(
            store, targets=roster, runs=4
        )
        assert (cold_source, warm_source) == ("live", "store")
        assert warm.complete and warm.runs == cold.runs
        assert warm.summary(roster) == cold.summary(roster)
        assert report_to_payload(warm) == report_to_payload(cold)

        # The acceptance criterion: artifacts written from the
        # store-reconstructed report are byte-identical to the live ones.
        assert cold.counterexamples  # the planted bug was found
        cold_dir = str(tmp_path / "cold")
        warm_dir = str(tmp_path / "warm")
        cold_paths = write_artifacts(cold, cold_dir)
        warm_paths = write_artifacts(warm, warm_dir)
        assert [os.path.basename(p) for p in cold_paths] == [
            os.path.basename(p) for p in warm_paths
        ]
        for cold_path, warm_path in zip(cold_paths, warm_paths):
            with open(cold_path, "rb") as handle:
                cold_bytes = handle.read()
            with open(warm_path, "rb") as handle:
                warm_bytes = handle.read()
            assert cold_bytes == warm_bytes

    def test_different_parameters_are_different_entries(self, store):
        roster = self._roster()
        run_campaign_cached(store, targets=roster, runs=4)
        _report, source = run_campaign_cached(
            store, targets=roster, runs=4, master_seed=7
        )
        assert source == "live"  # a different seed is a different question
        assert store.stats["puts"] == 2


class TestCommandLine:
    def test_bad_workers_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            service_main(
                ["--store", str(tmp_path / "certs"), "--workers", "abc",
                 "flp", "--protocol", "quorum-vote"]
            )
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "certs")
