"""Werner family: the closed form against nrb_two_qubit.

A Werner state has maximally mixed marginals, so for mu < 1 nrb_two_qubit
takes its zero-marginal route: one SVD of the correlation matrix T = -mu I,
and the irreality drop of the general Fano-form objective evaluated at the
singular-vector pair of the smallest singular value. That route knows
nothing of the Werner formula; agreement across the whole noise range, with
the argmax at aligned measurement axes (eta = 1), checks both. At mu = 1 the
state is pure and takes the Schmidt pair instead.
"""
from rbnl import nrb_two_qubit, nrb_werner_closed_form, werner


def main():
    print(f"  {'mu':>4}  {'closed form':>12}  {'nrb_two_qubit':>13}  {'gap':>9}  {'eta':>8}")
    for k in range(0, 11):
        mu = k / 10
        cf = nrb_werner_closed_form(mu)
        res = nrb_two_qubit(werner(mu))
        print(f"  {mu:>4.1f}  {cf:>12.9f}  {res.value:>13.9f}"
              f"  {abs(cf - res.value):>9.1e}  {res.eta:>8.6f}")
    print()
    print("the mu=1 value is ln 2: the singlet's entanglement entropy,")
    print("attained on its Schmidt bases")


if __name__ == "__main__":
    main()
