"""Packet arithmetic: XOR with zero-extension, dummy packet as identity."""

import random

from scpir.packets import DUMMY, add_packets, sum_packets


def test_self_cancellation():
    assert add_packets(b"\x0a\x0b", b"\x0a\x0b") == b"\x00\x00"


def test_dummy_is_identity():
    assert add_packets(b"\x01", b"") == b"\x01"
    assert add_packets(b"", b"\x01") == b"\x01"
    assert add_packets(DUMMY, DUMMY) == DUMMY


def test_positionwise_xor_with_padding():
    # 0x12 ^ 0xff = 0xed; second byte meets implicit zero
    assert add_packets(b"\x12\x34", b"\xff") == b"\xed\x34"


def test_sum_empty_is_dummy():
    assert sum_packets([]) == DUMMY


def test_sum_odd_repeats_in_characteristic_two():
    p = b"\x5a\x11\xf0"
    assert sum_packets([p, p, p]) == p
    assert sum_packets([p, p]) == b"\x00" * 3


def test_sum_xor_fold():
    assert sum_packets([b"\x01", b"\x02", b"\x04"]) == b"\x07"


def reference_xor(a, b):
    """Byte-at-a-time XOR with zero-extension: the oracle add_packets and
    sum_packets must match."""
    if len(a) < len(b):
        a, b = b, a
    out = bytearray(a)
    for i, x in enumerate(b):
        out[i] ^= x
    return bytes(out)


def test_algebraic_laws_on_random_packets():
    rng = random.Random(20240101)
    # every length pair 0..64, plus zero runs at either end whose width must survive
    samples = [rng.randbytes(n) for n in range(65)]
    samples += [bytes(n) for n in (1, 2, 7, 64)]
    samples += [b"\x00\x00\x01", b"\x01\x00\x00", b"\x00\x5a\x00"]
    samples.append(b"\x00" + rng.randbytes(30) + b"\x00")
    for a in samples:
        for b in samples:
            assert add_packets(a, b) == reference_xor(a, b)
    for _ in range(200):
        a, b, c = (rng.choice(samples) for _ in range(3))
        assert add_packets(a, b) == add_packets(b, a)
        assert add_packets(add_packets(a, b), c) == add_packets(a, add_packets(b, c))
        assert add_packets(a, a) == b"\x00" * len(a)
        assert len(add_packets(a, b)) == max(len(a), len(b))
        want = reference_xor(reference_xor(a, b), c)
        assert sum_packets(p for p in (a, b, c)) == want
        from_views = sum_packets(map(memoryview, (a, b, c)))
        assert type(from_views) is bytes and from_views == want
    a, b = rng.randbytes(20 * 1024), rng.randbytes(20 * 1024)
    assert add_packets(a, b) == reference_xor(a, b)
    assert sum_packets([a, b, a]) == b
    assert sum_packets([bytes(64)]) == bytes(64)
