"""Two flagship characterizations, checked against independent oracles.

Forbidding all homomorphic images of the directed path on k+1 vertices
captures k-colourability; forbidding the two-arcs-out-of-one-vertex
pattern in an acyclic orientation captures chordality.  Both are verified
here over every graph with up to five vertices against brute-force
colouring and simplicial elimination.

Run:  python3 demos/03_colourings_and_chordal.py
"""

from forbor import (
    ForbiddenSet, SearchMode, admits_orientation, coupling, directed_path,
    enumerate_graphs, homomorphic_image_closure, make_cycle,
    oracle_chordal, oracle_k_colourable, word_to_path,
)

print("== image closure: from one path to a finite induced family ==")
for k in (2, 3):
    F = ForbiddenSet((directed_path(k),))
    closed = homomorphic_image_closure(F)
    print(f"directed path on {k + 1} vertices closes into "
          f"{len(closed.members)} induced patterns")
print("the hom search never builds the closure: it maps the path itself")

print()
print("== sweeping every graph on <= 5 vertices ==")
FP3 = ForbiddenSet((directed_path(2),))
FP4 = ForbiddenSet((directed_path(3),))
FP5 = ForbiddenSet((directed_path(4),))
FB1 = ForbiddenSet((word_to_path("<>"),))
hom = SearchMode("hom")
ind_ac = SearchMode("induced", acyclic=True)
total = 0
for n in range(1, 6):
    for g in enumerate_graphs(n):
        total += 1
        assert admits_orientation(g, FP3, hom).admits == oracle_k_colourable(g, 2)
        assert admits_orientation(g, FP4, hom).admits == oracle_k_colourable(g, 3)
        assert admits_orientation(g, FP5, hom).admits == oracle_k_colourable(g, 4)
        assert admits_orientation(g, FB1, ind_ac).admits == oracle_chordal(g)
print(f"all {total} graphs agree on 2-, 3- and 4-colouring and chordality")

print()
print("== a few named graphs ==")
for name, g in [("C5", make_cycle(5)), ("C6", make_cycle(6)),
                ("bowtie", coupling(3, 3)), ("C4+C5 glued", coupling(4, 5))]:
    two = admits_orientation(g, FP3, hom).admits
    chd = admits_orientation(g, FB1, ind_ac).admits
    print(f"  {name:12s} bipartite={two!s:5}  chordal={chd}")
