# -*- coding: utf-8 -*-
"""
Mod-p congruences between curve pairs
=====================================

Point counting gives the Fourier coefficients a_q; a pair of curves with
a_q(A) = a_q(B) mod p for all good q up to the Sturm-style bound shares its
mod-p Galois representation, which is the entry ticket to every visibility
theorem here.
"""

from shavis import WeierstrassModel, a_q, congruence_bound, curve_facts, verify_congruence

E1 = WeierstrassModel.from_list([0, 0, 0, 1, -10])
E2 = WeierstrassModel.from_list([0, 0, 0, -584, 5444])

###############################################################################
# A few coefficients side by side: equal mod 5 at every good prime.

print(" q   a_q(E1)  a_q(E2)   diff mod 5")
for q in (3, 11, 17, 19, 23, 29):
    a, b = a_q(E1, q).a_q, a_q(E2, q).a_q
    print(f"{q:>2} {a:>8} {b:>8} {(a - b) % 5:>10}")

###############################################################################
# The bounded proof checks everything up to floor(mu(lcm(N_A, N_B))/6) plus
# the level-lowering compatibilities at primes dividing one conductor only.
# The sweep takes each curve's facts (minimal model, c-invariants, conductor
# and local data), derived once by curve_facts.

print("\nbound =", congruence_bound(52, 364))
F1, F2 = curve_facts(E1), curve_facts(E2)
print("conductors:", F1.conductor, F2.conductor)
cert = verify_congruence(F1, F2, 5, mode="bounded-proof")
print("verdict:", cert.verdict, "after", len(cert.primes_checked), "primes")

###############################################################################
# A failing pair is refuted with explicit mismatch evidence.

E11 = WeierstrassModel.from_list([0, -1, 1, -10, -20])
bad = verify_congruence(F1, curve_facts(E11), 5)
print("\nE1 vs 11a1 at 5:", bad.verdict)
print("first mismatches:", [(m["q"], m["a_q_A"], m["a_q_B"]) for m in bad.mismatches[:3]])

###############################################################################
# Irreducibility of the shared torsion, with a re-checkable witness prime.
# The search reads the same facts: the conductor rules out the bad primes,
# and a_q is counted on the minimal model.

from shavis import irreducible_mod_p, quadratic_field

verdict = irreducible_mod_p(F1, 5, quadratic_field(59))
print(f"\nE1[5] over Q(sqrt 59): {verdict.status}, witness prime {verdict.witness_prime} "
      f"with a_q = {verdict.witness_aq}")
