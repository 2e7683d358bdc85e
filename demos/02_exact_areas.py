"""Exact filling areas on the integer lattice, two independent ways.

The winding engine sums |winding number| over unit cells; the search oracle
fills the word one relator at a time. They must agree, and do; the oracle
also handles presentations with torsion, where the lattice picture fails.
"""

from dehnlab import (
    Word,
    area_exact_z2,
    area_lower_zr,
    area_oracle,
    area_upper_dc,
    builtin_presentation,
    free_abelian,
    make_combing,
    winding_field,
)

z2 = builtin_presentation("z2")
st = make_combing(z2, "staircase")

examples = [
    "a1 a2 A1 A2",              # one cell, positively oriented
    "a2 a1 A2 A1",              # same cell, reversed
    "a1 a1 a2 A1 A1 A2",        # a 2 x 1 rectangle
    "a1 a1 a2 a2 A1 A1 A2 A2",  # a 2 x 2 square
]
for toks in examples:
    w = Word.from_tokens(toks)
    wf = winding_field(w)
    print(f"{toks:28s} winding {dict(sorted(wf.cells.items()))}")
    print(f"{'':28s} area = {area_exact_z2(w)}  oracle = {area_oracle(z2, w)}")

print()
print("open paths close through the combing; order matters:")
for toks in ("a1 a2", "a2 a1"):
    from dehnlab import area_open

    print(f"  {toks:8s} ->", area_open(z2, st, Word.from_tokens(toks)))

print()
print("divide-and-conquer certified upper bounds vs the exact engine:")
for toks in examples:
    w = Word.from_tokens(toks)
    print(f"  {toks:28s} exact {area_exact_z2(w)}  dc-bound {area_upper_dc(z2, st, w, leaf_size=2)}")

print()
print("rank three: projected-winding lower bound, oracle, dc upper bound")
z3 = free_abelian(3)
comb3 = make_combing(z3, "staircase")
w = Word.from_tokens("a1 a2 A1 A2 a2 a3 A2 A3")
print("  word:", w.tokens())
print(
    "  lower",
    area_lower_zr(w, 3),
    " oracle",
    area_oracle(z3, w),
    " dc",
    area_upper_dc(z3, comb3, w, leaf_size=4),
)

print()
print("torsion presentations fill through their power relators:")
z10 = builtin_presentation("z10")
zx = builtin_presentation("zxz2")
print("  a^10 in Z/10          :", area_oracle(z10, Word((1,) * 10)))
print("  b^8  in Z x Z/2       :", area_oracle(zx, Word((2,) * 8)))
print("  aabbAABB in Z x Z/2   :", area_oracle(zx, Word.from_tokens("a1 a1 a2 a2 A1 A1 A2 A2")),
      "(the square fills cheaper than on the lattice)")
