#!/usr/bin/env python3
# The five classical point symmetries (translations, scaling, Galilean
# boost, projective transformation) exist for every system size, and
# their bracket tables coincide entry by entry: one five-dimensional Lie
# algebra realized on manifolds of different dimension.

from burgers_hierarchy import generators, structure_constants
from burgers_hierarchy.prolong import verify_classical

print("generators for m = 3:")
for field in generators(3):
    parts = [f"tau={field.tau}", f"xi={field.xi}"]
    parts += [f"eta{a}={e}" for a, e in enumerate(field.etas, start=1)]
    print(f"  {field.name}: " + ", ".join(parts))

print("\ncommutator table (m = 1):")
print(structure_constants(1).table_text())

print("\ncross-size comparison of structure constants:")
single = structure_constants(1).brackets
for m in range(2, 9):
    print(f"  m=1 vs m={m}: identical tables: {structure_constants(m).brackets == single}")

# verify_classical raises VerificationError for a generator that is not a symmetry
print("\nclassical invariance check (every generator annihilates the system):")
for m in (1, 4, 8):
    print(f"  m={m}: ok ({', '.join(verify_classical(m)['generators'])})")
