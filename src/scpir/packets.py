"""Packet arithmetic on bytes, which the protocol no longer calls.

`sfpir` keeps every packet of a round as one int from the moment a group's
storage is built until `decode` hands back bytes, so nothing in `scpir`
calls `add_packets` or `sum_packets`. The module stays only because the
benchmark (`perfbench/workloads.py`) imports it and traces those two
functions by name for its `packets.*` per-layer metrics, which therefore
read 0 calls; it goes once the benchmark points those metrics elsewhere.

A packet is a bytes-like string; each byte is an element of the order-256
field with addition realized as XOR. The scheme only ever combines packets
with coefficients 0 and 1, so no multiplication table is needed. The empty
byte string doubles as the dummy packet: it is the additive identity and
is never stored or transmitted.

XOR is realized on whole packets at once, in `sum_packets` alone: a packet
is read as one little-endian integer, so byte i of every packet lands on
the same bits and a shorter packet is implicitly zero-extended. The
result's width is always taken from the packet lengths, never from the
integer's bit length, so zero bytes at either end survive.
"""

DUMMY = b""


def add_packets(a: bytes, b: bytes) -> bytes:
    """XOR two packets position-wise, zero-extending the shorter one: the
    two-term `sum_packets`."""
    return sum_packets((a, b))


def sum_packets(packets) -> bytes:
    """XOR of any iterable of packets, zero-extended to the longest one.

    The sum is folded in the integer domain (one conversion per term, one
    back at the end); the empty sequence yields the dummy packet.
    """
    acc = 0
    width = 0
    for p in packets:
        acc ^= int.from_bytes(p, "little")
        if len(p) > width:
            width = len(p)
    return acc.to_bytes(width, "little")
