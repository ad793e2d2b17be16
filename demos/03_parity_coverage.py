"""Parity coarse-graining charts the whole qubit basis, even at depth 1.

Four sampling configurations (photon number M or M-1, parity variant 0
or 1) together cover all 2^M bit strings.  The coverage report also
shows how unevenly the pattern classes pile onto bit strings, via the
closed-form multiplicity counts.
"""

from shallowboson import upsilon0, verify_surjectivity

for m in (4, 5, 6):
    report = verify_surjectivity(m, 1, {m - 1, m}, {0, 1})
    print(f"M = {m}, depth 1: covered {len(report.covered)} of {2**m} "
          f"bit strings -> complete = {report.is_complete}")

print("\nsingle configuration (n = M, parity 0) covers only half:")
half = verify_surjectivity(4, 3, {4}, {0})
print(f"  M = 4, full depth: {len(half.covered)} strings, all with an even"
      f" number of ones: {all(sum(b) % 2 == 0 for b in half.covered)}")

print("\nfull-sector preimage multiplicities for M = 6, n = 6:")
for m_even in range(0, 7, 2):
    bits = "0" * m_even + "1" * (6 - m_even)
    print(f"  bit string {bits}: {upsilon0(6, 6, m_even)} patterns")

print("\ndepth-1 empirical multiplicities (M = 4, n = 4, parity 0):")
report = verify_surjectivity(4, 1, {4}, {0})
# one count per bit string, indexed by its code (first mode most significant)
for code, count in enumerate(report.multiplicities):
    if count:
        print(f"  {code:04b}: {count}")
