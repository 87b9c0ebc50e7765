"""Werner-family closed forms of the three quantifiers, the one check of
mu (check_mu) and of a count (check_int), linspace, and _write_atomic, the
one writer of every file rbnl writes (CLI outputs and save_state).

It imports only `math`, `numbers`, `os` and `contextlib`: `rbnl sweep` and
`rbnl decay`, which need nothing else, start without numpy, and the CLI checks
its counts with the check_int of the numpy-backed modules.
`rbnl.nonlocality` re-exports nrb_werner_closed_form and `rbnl.bell`
nmax_werner and nvol_werner_analytic, next to their numeric routes.
"""
from __future__ import annotations

import contextlib
import math
import numbers
import os

SQRT2 = math.sqrt(2)


def check_mu(mu: float) -> None:
    """The one check of a noise parameter: mu in [0, 1]; NaN fails it."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """The one check of a count: value as a Python int, from a Python or numpy
    integer in [minimum, maximum], unbounded above when maximum is None. A bool
    or other type (a 0-d array too) raises TypeError; out of range, ValueError."""
    # an exact int skips the ABC check, which costs about 0.5 us a call
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def _h(x: float) -> float:
    """(1 + x) ln(1 + x), extended by its limit 0 at x = -1."""
    one = 1.0 + x
    if one <= 0.0:
        return 0.0
    return one * math.log(one)


def nrb_werner_closed_form(mu: float) -> float:
    """Closed form for the noisy-singlet family:
    (1/4)[h(3 mu) + h(-mu) - 2 h(mu)] with h(x) = (1+x) ln(1+x).

    Equals ln 2 at mu = 1 and 0 at mu = 0; monotone increasing in between.
    """
    check_mu(mu)
    return 0.25 * (_h(3 * mu) + _h(-mu) - 2 * _h(mu))


def nmax_werner(mu: float) -> float:
    """max[0, mu sqrt(2) - 1]: how far the noisy singlet's best CHSH value
    exceeds the local bound, in units of the local bound."""
    check_mu(mu)
    return max(0.0, mu * SQRT2 - 1.0)


def nvol_werner_analytic(mu: float) -> float:
    """Fraction of the reduced box (equivalently, of sphere-uniform setting
    space) violating CHSH for the noisy singlet.

    Zero for mu <= 1/sqrt(2). Above threshold, with s0 = 1/(mu sqrt(2)):

        pi/2 - 3 s0 sqrt(1 - s0^2) - arcsin(s0) + 2 s0^2 arccos(s0)

    obtained by integrating the violating region in polar coordinates over
    one octant of the (x, y) plane and using its fourfold symmetry (the
    region lives entirely in the same-sign quadrants). At mu = 1 the value
    is (pi - 3)/2.
    """
    check_mu(mu)
    if mu <= 1.0 / SQRT2:
        return 0.0
    s0 = 1.0 / (SQRT2 * mu)
    g = math.sqrt(max(0.0, 1.0 - s0 * s0))
    val = math.pi / 2 - 3 * s0 * g - math.asin(s0) + 2 * s0 * s0 * math.acos(s0)
    return min(max(val, 0.0), 1.0)


def linspace(start: float, stop: float, num: int) -> list:
    """num >= 2 evenly spaced floats from start to stop, both included,
    equal bit for bit to np.linspace(start, stop, num): i * step + start
    with step = (stop - start) / (num - 1), or (i / (num - 1)) * delta when
    step underflows to 0, and stop itself last."""
    div = num - 1
    delta = float(stop) - float(start)
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    points.append(float(stop))
    return points


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temp file next to path, then rename it onto path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
