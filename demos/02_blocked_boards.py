"""The pair table and blocked boards.

Unsatisfiability has a mechanical shape here: an instance is hopeless
exactly when its rows cover all 2^n codes, because every assignment is
then blocked by the row complementing it. The pair table makes that
coverage cheap to watch: its address map stores each code next to its
complement, so the board fills pair by pair and a leftover hole names an
unblocked assignment directly.
"""

from ssat import (
    EMPTY, PairTable, SsatInstance, address_of, complement, evaluate, inverse_address,
)

n = 3
print(f"Address map for n = {n} (code -> cell, complement -> neighbor):")
for k in range(1 << n):
    a = address_of(k, n)
    c = complement(k, n)
    print(f"  code {k:03b} -> cell {a}   (complement {c:03b} -> cell {address_of(c, n)})")

print("\nPair-inserting 000, 001, 010 fills three adjacent cell pairs:")
table = PairTable(n)
for k in (0b000, 0b001, 0b010):
    table.insert_pair(k)
    # an occupied cell holds the code whose address it is
    held = [inverse_address(a, n) if occupied else EMPTY
            for a, occupied in enumerate(table.cells.tolist())]
    print(f"  after insert_pair({k:03b}): ct = {table.ct}, cells = {held}")

gap = table.find_gap()
print(f"\nThe first empty cell belongs to code {gap:03b}.")
inst = SsatInstance(n, [0, 1, 2, 3, 5, 6, 7])
print(f"Against the 7-row instance with those failures, evaluate({gap:03b}) = "
      f"{evaluate(inst, gap)}: the hole is a solution.")

print("\nOne more pair insertion blocks the whole board:")
table.insert_pair(0b011)
print(f"  ct = {table.ct} of {table.size}; find_gap() -> {table.find_gap()}")

blocked = SsatInstance(n, list(range(1 << n)))
assert all(evaluate(blocked, x) == 0 for x in range(1 << n))
print("The all-rows instance evaluates to 0 on every assignment, as the")
print("full table promised.")
