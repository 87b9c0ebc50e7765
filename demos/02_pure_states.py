"""For pure states the quantifier reduces to entanglement entropy.

Two checks: for random pure two-qubit states, the irreality drop that
nrb_two_qubit evaluates at the Schmidt pair (its route for pure states,
through the dephased spectra) equals the entropy of the Schmidt
coefficients, and over a one-parameter qutrit family the maximum sits at
the maximally entangled member (no anomaly, unlike Bell quantifiers).
"""
import numpy as np

from rbnl import (entanglement_entropy, nrb_pure, nrb_two_qubit,
                  qutrit_family, random_pure)


def main():
    print("random pure two-qubit states: drop at the Schmidt pair vs Schmidt entropy")
    print(f"  {'seed':>4}  {'pair drop':>12}  {'entropy':>12}  {'gap':>9}")
    for seed in range(6):
        psi = random_pure(2, 2, seed=seed)
        drop = nrb_two_qubit(psi.density()).value
        ent = entanglement_entropy(psi)
        print(f"  {seed:>4}  {drop:>12.9f}  {ent:>12.9f}  {abs(drop - ent):>9.1e}")
    print()

    print("qutrit family (|00> + gamma |11> + |22>), normalized:")
    print(f"  {'gamma':>5}  {'value':>10}")
    vals = {}
    for gamma in [0.2 * k for k in range(1, 11)]:
        v = nrb_pure(qutrit_family(gamma)).value
        vals[round(gamma, 1)] = v
        marker = "  <-- maximum" if abs(gamma - 1.0) < 1e-9 else ""
        print(f"  {gamma:>5.1f}  {v:>10.6f}{marker}")
    print(f"  value at gamma=1 is ln 3 = {np.log(3):.6f}; "
          f"the peak sits at the maximally entangled member")


if __name__ == "__main__":
    main()
