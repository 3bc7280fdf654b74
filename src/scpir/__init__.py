"""Storage-constrained private information retrieval toolkit.

Builds storage design arrays for N servers that each hold an M/N fraction
of a K-file library, runs the associated retrieval protocol end to end in
process, and audits privacy, correctness, download rate, and
sub-packetization against closed-form targets and brute-force oracles.
All bookkeeping is exact (integers and rationals); no floating point.
"""
