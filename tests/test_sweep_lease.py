"""Unit tests for the sweep lease protocol (claim / heartbeat /
reclaim / quarantine)."""

import json
import os
import time

import pytest

from repro.resilience import ChaosConfig, ChaosMonkey
from repro.sweep.lease import (
    LEASE_FORMAT,
    QUARANTINE_FORMAT,
    LeaseManager,
    default_owner,
    heartbeat_path,
    open_leases,
)

KEY = "ab" + "0" * 62


def _backdate(path, seconds):
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestClaim:
    def test_claim_release_cycle(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        assert mgr.try_claim(KEY) == 1
        state = mgr.read(KEY)
        assert state.owner == mgr.owner
        assert state.attempt == 1
        assert state.pid == os.getpid()
        assert mgr.release(KEY)
        assert mgr.read(KEY) is None

    def test_foreign_live_lease_is_respected(self, tmp_path):
        a = LeaseManager(str(tmp_path), owner="a", ttl_s=30.0)
        b = LeaseManager(str(tmp_path), owner="b", ttl_s=30.0)
        assert a.try_claim(KEY) == 1
        assert b.try_claim(KEY) is None

    def test_reclaim_is_idempotent_for_owner(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        assert mgr.try_claim(KEY) == 1
        assert mgr.try_claim(KEY) == 1  # no attempt burn on re-claim

    def test_release_never_touches_foreign_lease(self, tmp_path):
        a = LeaseManager(str(tmp_path), owner="a", ttl_s=30.0)
        b = LeaseManager(str(tmp_path), owner="b", ttl_s=30.0)
        assert a.try_claim(KEY) == 1
        assert not b.release(KEY)
        assert a.read(KEY) is not None

    def test_lease_file_is_valid_json_with_format_tag(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        mgr.try_claim(KEY)
        data = json.loads(open(mgr.path_for(KEY)).read())
        assert data["format"] == LEASE_FORMAT
        assert data["key"] == KEY

    def test_distinct_default_owners(self):
        assert default_owner() != default_owner()


class TestReclaim:
    def test_stale_lease_reclaimed_with_attempt_bump(self, tmp_path):
        a = LeaseManager(str(tmp_path), owner="dead", ttl_s=5.0)
        assert a.try_claim(KEY) == 1
        _backdate(a.path_for(KEY), 3600)
        b = LeaseManager(str(tmp_path), owner="alive", ttl_s=5.0)
        assert b.try_claim(KEY) == 2  # attempt count survives owner death
        assert b.reclaims == 1
        state = b.read(KEY)
        assert state.owner == "alive"

    def test_heartbeat_defeats_reclamation(self, tmp_path):
        a = LeaseManager(str(tmp_path), owner="slow", ttl_s=5.0)
        assert a.try_claim(KEY) == 1
        _backdate(a.path_for(KEY), 3600)
        assert a.heartbeat(KEY)  # the owner wakes up just in time
        b = LeaseManager(str(tmp_path), owner="vulture", ttl_s=5.0)
        assert b.try_claim(KEY) is None

    def test_corrupt_lease_reads_invalid_and_is_reclaimable(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=5.0)
        path = mgr.path_for(KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("not json{{{")
        state = mgr.read(KEY)
        assert state is not None and not state.valid
        # Corrupt leases are treated as stale regardless of age.
        assert mgr.try_claim(KEY) == 1

    def test_heartbeat_path_of_missing_file_is_false(self, tmp_path):
        assert not heartbeat_path(str(tmp_path / "gone.lease"))

    def test_bump_increments_owned_lease(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        assert mgr.try_claim(KEY) == 1
        assert mgr.bump(KEY) == 2
        assert mgr.bump(KEY) == 3
        assert mgr.read(KEY).attempt == 3

    def test_bump_refuses_foreign_lease(self, tmp_path):
        a = LeaseManager(str(tmp_path), owner="a", ttl_s=30.0)
        b = LeaseManager(str(tmp_path), owner="b", ttl_s=30.0)
        a.try_claim(KEY)
        assert b.bump(KEY) is None

    def test_bump_publish_failure_returns_none(self, tmp_path, monkeypatch):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        assert mgr.try_claim(KEY) == 1

        def broken_replace(src, dst):
            raise OSError("disk")

        monkeypatch.setattr(os, "replace", broken_replace)
        assert mgr.bump(KEY) is None
        monkeypatch.undo()
        assert mgr.read(KEY).attempt == 1
        shard = os.path.dirname(mgr.path_for(KEY))
        assert not [n for n in os.listdir(shard) if n.endswith(".tmp")]


class TestQuarantine:
    def test_manifest_roundtrip(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        mgr.try_claim(KEY)
        path = mgr.quarantine(KEY, {
            "driver": "fig14", "index": 3, "point": "('KRO',)",
            "attempts": 3, "error": "worker died (exitcode=-9)",
        })
        assert os.path.exists(path)
        manifest = mgr.is_quarantined(KEY)
        assert manifest["format"] == QUARANTINE_FORMAT
        assert manifest["attempts"] == 3
        assert "worker died" in manifest["error"]
        # Quarantining drops the lease: the key is skipped via the
        # manifest, not blocked by a dangling claim.
        assert mgr.read(KEY) is None

    def test_quarantine_listing_and_clear(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        mgr.quarantine(KEY, {"error": "boom", "attempts": 2})
        assert [m["key"] for m in mgr.quarantined()] == [KEY]
        assert mgr.clear_quarantine(KEY)
        assert mgr.is_quarantined(KEY) is None
        assert mgr.quarantined() == []

    def test_unquarantined_key_reads_none(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl_s=30.0)
        assert mgr.is_quarantined(KEY) is None


class TestOpenLeases:
    def test_none_propagation(self):
        assert open_leases(None) is None

    def test_builds_manager(self, tmp_path):
        mgr = open_leases(str(tmp_path / "leases"), ttl_s=7.0)
        assert isinstance(mgr, LeaseManager)
        assert mgr.ttl_s == 7.0

    def test_rejects_bad_ttl(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseManager(str(tmp_path), ttl_s=0.0)


class TestHeartbeatStallChaos:
    def test_stalled_heartbeat_lets_a_peer_reclaim(self, tmp_path):
        # The chaos fault for "live owner that looks dead": the owner
        # claims, its heartbeat is stalled, the lease ages past the TTL
        # and a peer reclaims it — exactly the double-execution hazard
        # the exactly-once ledger audit exists to surface.
        monkey = ChaosMonkey(ChaosConfig(lease_heartbeat_stall=True))
        assert monkey.stall_lease_heartbeat()
        owner = LeaseManager(str(tmp_path), owner="stalled", ttl_s=2.0)
        assert owner.try_claim(KEY) == 1
        if not monkey.stall_lease_heartbeat():
            owner.heartbeat(KEY)  # (what a healthy worker would do)
        _backdate(owner.path_for(KEY), 10.0)
        peer = LeaseManager(str(tmp_path), owner="peer", ttl_s=2.0)
        assert peer.try_claim(KEY) == 2
        assert peer.read(KEY).owner == "peer"

    def test_no_stall_by_default(self):
        monkey = ChaosMonkey(ChaosConfig())
        assert not monkey.stall_lease_heartbeat()
