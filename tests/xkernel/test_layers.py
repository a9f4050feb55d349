"""Tests for the FDDI, IP, and UDP layers (happy paths + every drop path)."""

import pytest

from repro.xkernel.checksum import internet_checksum
from repro.xkernel.fddi import (
    ETHERTYPE_IP,
    FDDI_HEADER_LEN,
    FDDI_MTU,
    FDDIProtocol,
    encode_fddi_header,
)
from repro.xkernel.ip import (
    IPPROTO_UDP,
    IPProtocol,
    encode_ip_header,
    ip_to_bytes,
)
from repro.xkernel.message import Message
from repro.xkernel.protocol import (
    ChecksumError,
    DemuxError,
    ProtocolError,
    Session,
    TruncatedHeaderError,
)
from repro.xkernel.udp import UDPProtocol, encode_udp_header

MAC = bytes(6)
SRC_MAC = bytes([2, 0, 0, 0, 0, 1])
HOST_IP = ip_to_bytes("10.0.0.1")
PEER_IP = ip_to_bytes("10.0.0.9")


class Sink(Session):
    """Terminal session recording deliveries."""

    def __init__(self):
        super().__init__(key=None, protocol=None)


class SinkProtocol:
    """Upper-layer stand-in recording received messages."""

    def __init__(self):
        self.messages = []
        self.session = Sink()

    def receive(self, msg):
        self.messages.append(bytes(msg))
        self.session.deliver(msg)
        return self.session


class TestIPToBytes:
    def test_valid(self):
        assert ip_to_bytes("1.2.3.4") == bytes([1, 2, 3, 4])

    def test_invalid_format(self):
        with pytest.raises(ValueError):
            ip_to_bytes("1.2.3")

    def test_octet_range(self):
        with pytest.raises(ValueError):
            ip_to_bytes("1.2.3.999")


class TestFDDI:
    def build(self):
        fddi = FDDIProtocol(MAC)
        upper = SinkProtocol()
        fddi.register_upper(ETHERTYPE_IP, upper)
        return fddi, upper

    def frame(self, dst=MAC, ethertype=ETHERTYPE_IP, payload=b"datagram"):
        return encode_fddi_header(dst, SRC_MAC, ethertype) + payload

    def test_happy_path(self):
        fddi, upper = self.build()
        fddi.receive(Message(self.frame()))
        assert upper.messages == [b"datagram"]
        assert fddi.stats.delivered == 1

    def test_broadcast_accepted(self):
        fddi, upper = self.build()
        fddi.receive(Message(self.frame(dst=b"\xff" * 6)))
        assert upper.messages

    def test_broadcast_rejectable(self):
        fddi = FDDIProtocol(MAC, accept_broadcast=False)
        fddi.register_upper(ETHERTYPE_IP, SinkProtocol())
        with pytest.raises(DemuxError):
            fddi.receive(Message(self.frame(dst=b"\xff" * 6)))

    def test_wrong_station_dropped(self):
        fddi, _ = self.build()
        with pytest.raises(DemuxError):
            fddi.receive(Message(self.frame(dst=bytes([9] * 6))))
        assert fddi.stats.dropped == 1

    def test_truncated_frame(self):
        fddi, _ = self.build()
        with pytest.raises(TruncatedHeaderError):
            fddi.receive(Message(b"\x50short"))

    def test_unknown_ethertype(self):
        fddi, _ = self.build()
        with pytest.raises(DemuxError, match="ethertype"):
            fddi.receive(Message(self.frame(ethertype=0x86DD)))

    def test_bad_frame_control(self):
        fddi, _ = self.build()
        frame = bytearray(self.frame())
        frame[0] = 0x00
        with pytest.raises(ProtocolError, match="frame control"):
            fddi.receive(Message(bytes(frame)))

    def test_oversized_frame(self):
        fddi, _ = self.build()
        frame = self.frame(payload=b"x" * (FDDI_MTU + 1))
        with pytest.raises(ProtocolError, match="MTU"):
            fddi.receive(Message(frame))

    def test_non_snap_llc(self):
        fddi, _ = self.build()
        frame = bytearray(self.frame())
        frame[13] = 0x42  # clobber DSAP
        with pytest.raises(ProtocolError, match="SNAP"):
            fddi.receive(Message(bytes(frame)))

    def test_header_length_constant(self):
        assert len(encode_fddi_header(MAC, SRC_MAC)) == FDDI_HEADER_LEN

    def test_encode_validation(self):
        with pytest.raises(ValueError):
            encode_fddi_header(b"\x00", SRC_MAC)
        with pytest.raises(ValueError):
            encode_fddi_header(MAC, SRC_MAC, ethertype=1 << 17)


class TestIP:
    def build(self):
        ip = IPProtocol(HOST_IP)
        upper = SinkProtocol()
        ip.register_upper(IPPROTO_UDP, upper)
        return ip, upper

    def datagram(self, payload=b"segment", dst=HOST_IP, **kw):
        return encode_ip_header(PEER_IP, dst, len(payload), **kw) + payload

    def test_happy_path(self):
        ip, upper = self.build()
        ip.receive(Message(self.datagram()))
        assert upper.messages == [b"segment"]

    def test_header_checksum_valid_by_construction(self):
        hdr = encode_ip_header(PEER_IP, HOST_IP, 10)
        assert internet_checksum(hdr) == 0

    def test_corrupted_header_dropped(self):
        ip, _ = self.build()
        d = bytearray(self.datagram())
        d[8] ^= 0xFF  # TTL byte
        with pytest.raises(ChecksumError):
            ip.receive(Message(bytes(d)))

    def test_checksum_verification_can_be_disabled(self):
        ip = IPProtocol(HOST_IP, verify_header_checksum=False)
        upper = SinkProtocol()
        ip.register_upper(IPPROTO_UDP, upper)
        d = bytearray(self.datagram())
        d[10] ^= 0x01  # corrupt the checksum field itself
        ip.receive(Message(bytes(d)))
        assert upper.messages

    def test_wrong_destination(self):
        ip, _ = self.build()
        with pytest.raises(DemuxError, match="not addressed"):
            ip.receive(Message(self.datagram(dst=PEER_IP)))

    def test_truncated(self):
        ip, _ = self.build()
        with pytest.raises(TruncatedHeaderError):
            ip.receive(Message(b"\x45\x00"))

    def test_bad_version(self):
        ip, _ = self.build()
        d = bytearray(self.datagram())
        d[0] = 0x62
        # Fix checksum so version check (before checksum) is what fires.
        with pytest.raises(ProtocolError, match="version"):
            ip.receive(Message(bytes(d)))

    def test_fragment_rejected(self):
        ip, _ = self.build()
        raw = bytearray(encode_ip_header(PEER_IP, HOST_IP, 4))
        raw[6] = 0x20  # MF flag
        raw[10:12] = b"\x00\x00"
        csum = internet_checksum(bytes(raw))
        raw[10:12] = csum.to_bytes(2, "big")
        with pytest.raises(ProtocolError, match="fragment"):
            ip.receive(Message(bytes(raw) + b"frag"))

    def test_ttl_zero_rejected(self):
        ip, _ = self.build()
        with pytest.raises(ProtocolError, match="TTL"):
            ip.receive(Message(self.datagram(ttl=0)))

    def test_unknown_protocol(self):
        ip, _ = self.build()
        with pytest.raises(DemuxError, match="no upper"):
            ip.receive(Message(self.datagram(protocol=6)))  # TCP unbound

    def test_length_inconsistency(self):
        ip, _ = self.build()
        d = self.datagram()
        with pytest.raises(ProtocolError, match="length"):
            ip.receive(Message(d[:-3]))  # frame shorter than total_len

    def test_link_padding_stripped(self):
        ip, upper = self.build()
        ip.receive(Message(self.datagram() + b"\x00" * 7))  # trailer pad
        assert upper.messages == [b"segment"]

    def test_oversize_encode_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            encode_ip_header(PEER_IP, HOST_IP, 70_000)


class TestUDP:
    def build(self, verify=False):
        udp = UDPProtocol(HOST_IP, verify_payload_checksum=verify)
        session = udp.open_session(7000)
        return udp, session

    def datagram(self, payload=b"\x00\x00\x00\x01data", dst_port=7000):
        return encode_udp_header(6000, dst_port, len(payload)) + payload

    def test_happy_path(self):
        udp, session = self.build()
        udp.receive(Message(self.datagram()))
        assert session.packets_received == 1
        assert session.last_src_port == 6000

    def test_sequence_tracking(self):
        udp, session = self.build()
        for seq in (0, 1, 2):
            payload = seq.to_bytes(4, "big") + b"x"
            udp.receive(Message(self.datagram(payload=payload)))
        assert session.out_of_order == 0
        udp.receive(Message(self.datagram(payload=(7).to_bytes(4, "big"))))
        assert session.out_of_order == 1

    def test_unbound_port(self):
        udp, _ = self.build()
        with pytest.raises(DemuxError, match="port"):
            udp.receive(Message(self.datagram(dst_port=9)))

    def test_truncated(self):
        udp, _ = self.build()
        with pytest.raises(TruncatedHeaderError):
            udp.receive(Message(b"\x00\x01"))

    def test_length_inconsistency(self):
        udp, _ = self.build()
        bad = encode_udp_header(1, 7000, 100) + b"short"
        with pytest.raises(ProtocolError, match="length"):
            udp.receive(Message(bad))

    def test_callback_invoked(self):
        udp = UDPProtocol(HOST_IP)
        seen = []
        udp.open_session(7000, callback=seen.append)
        udp.receive(Message(self.datagram(payload=b"\x00\x00\x00\x00hi")))
        assert seen == [b"\x00\x00\x00\x00hi"]

    def test_double_bind_rejected(self):
        udp, _ = self.build()
        with pytest.raises(ValueError, match="already bound"):
            udp.open_session(7000)

    def test_close_session(self):
        udp, _ = self.build()
        udp.close_session(7000)
        assert udp.n_sessions == 0
        with pytest.raises(KeyError):
            udp.close_session(7000)

    def test_checksum_requires_src_ip(self):
        udp, _ = self.build(verify=True)
        d = encode_udp_header(1, 7000, 4, checksum=0xBEEF) + b"\x00\x00\x00\x00"
        with pytest.raises(ProtocolError, match="source address"):
            udp.receive(Message(d))

    def test_checksum_zero_skips_verification(self):
        udp, session = self.build(verify=True)
        udp.receive(Message(self.datagram()))  # checksum field 0
        assert session.packets_received == 1

    def test_encode_validation(self):
        with pytest.raises(ValueError):
            encode_udp_header(-1, 7000, 4)
        with pytest.raises(ValueError, match="too large"):
            encode_udp_header(1, 2, 70_000)
