"""AODV packet types."""

import dataclasses

import pytest

from repro.manet import DataPacket, Rerr, Rrep, Rreq


class TestRreq:
    def test_key(self):
        rreq = Rreq(origin=1, origin_seq=5, rreq_id=9, dest=2, dest_seq=0,
                    hop_count=0, ttl=10)
        assert rreq.key() == (1, 9)

    def test_forwarded_increments_and_decrements(self):
        rreq = Rreq(origin=1, origin_seq=5, rreq_id=9, dest=2, dest_seq=3,
                    hop_count=4, ttl=10, pair_id=7)
        forwarded = rreq.forwarded()
        assert forwarded.hop_count == 5
        assert forwarded.ttl == 9
        assert forwarded.key() == rreq.key()
        assert forwarded.pair_id == 7
        # The original is immutable and unchanged.
        assert rreq.hop_count == 4


class TestRrep:
    def test_forwarded(self):
        rrep = Rrep(dest=2, dest_seq=6, origin=1, hop_count=0, pair_id=3)
        forwarded = rrep.forwarded()
        assert forwarded.hop_count == 1
        assert forwarded.dest == 2
        assert forwarded.origin == 1
        assert forwarded.pair_id == 3


class TestRerr:
    def test_defaults(self):
        rerr = Rerr()
        assert rerr.unreachable == {}
        assert rerr.pair_id is None


class TestDataPacket:
    def test_mutable_hop_count(self):
        packet = DataPacket(flow_id=0, src=1, dst=2, seq=3, created_tick=4)
        packet.hop_count += 1
        assert packet.hop_count == 1


def sample_rreq():
    return Rreq(origin=1, origin_seq=5, rreq_id=9, dest=2, dest_seq=3,
                hop_count=4, ttl=10, pair_id=7)


def sample_rrep():
    return Rrep(dest=2, dest_seq=6, origin=1, hop_count=2, pair_id=3)


class TestControlPacketsImmutable:
    """Control packets are shared by every receiver of a broadcast, so
    they must not change after they are built."""

    @pytest.mark.parametrize("packet, field", [
        (sample_rreq(), "hop_count"),
        (sample_rreq(), "ttl"),
        (sample_rreq(), "origin"),
        (sample_rrep(), "hop_count"),
        (sample_rrep(), "dest_seq"),
    ], ids=["rreq-hop_count", "rreq-ttl", "rreq-origin", "rrep-hop_count",
            "rrep-dest_seq"])
    def test_assigning_a_field_raises(self, packet, field):
        with pytest.raises(AttributeError):
            setattr(packet, field, 0)

    def test_rerr_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Rerr().pair_id = 1

    @pytest.mark.parametrize("build", [sample_rreq, sample_rrep],
                             ids=["rreq", "rrep"])
    def test_hashable_and_equal_by_value(self, build):
        assert hash(build()) == hash(build())
        assert build() == build()
        assert len({build(), build(), build().forwarded()}) == 2

    def test_rreq_forwarded_changes_only_hop_and_ttl(self):
        rreq = sample_rreq()
        forwarded = rreq.forwarded()
        assert type(forwarded) is Rreq
        changed = {
            name for name, value in forwarded._asdict().items()
            if value != getattr(rreq, name)
        }
        assert changed == {"hop_count", "ttl"}
        assert (forwarded.hop_count, forwarded.ttl) == (5, 9)
        assert forwarded.key() == rreq.key() == (1, 9)
        assert rreq == sample_rreq()

    def test_rrep_forwarded_changes_only_hop(self):
        rrep = sample_rrep()
        forwarded = rrep.forwarded()
        assert type(forwarded) is Rrep
        assert forwarded._asdict() == dict(rrep._asdict(), hop_count=3)
        assert rrep == sample_rrep()

    def test_pair_id_defaults_to_none(self):
        assert Rreq(1, 1, 1, 2, 0, 0, 5).pair_id is None
        assert Rrep(2, 1, 1, 0).pair_id is None
        assert Rreq(1, 1, 1, 2, 0, 0, 5).forwarded().pair_id is None
