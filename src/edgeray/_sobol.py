"""scipy's scrambled Sobol points and normal quantile, on numpy alone.

``sobol`` is ``scipy.stats.qmc.Sobol(dim, seed=seed).random(n)`` bit for
bit: Joe-Kuo direction numbers (SIAM J. Sci. Comput. 30, 2008) extended
by the Bratley-Fox recurrence (ACM TOMS 659, 1988), a random linear
scramble and a digital shift.  ``ndtri`` is cephes' (and scipy's) ndtri.
"""

import math
from functools import cache, reduce

import numpy as np

BITS = 30
# first rows of scipy's _sobol_direction_numbers.npz: a primitive polynomial
# (leading and constant terms included), then its initial direction numbers
_JOE_KUO = (
    "1; 3 1; 7 1 3; 11 1 3 1; 13 1 1 1; 19 1 1 3 3; 25 1 3 5 13; "
    "37 1 1 5 5 17; 41 1 1 5 5 5; 47 1 1 7 11 19; 55 1 1 5 1 1; "
    "59 1 1 1 3 11; 61 1 3 5 5 31; 67 1 3 3 9 7 49; 91 1 1 1 15 21 21; "
    "97 1 3 1 13 27 49; 103 1 1 1 15 7 5; 109 1 3 1 15 13 25; "
    "115 1 1 5 5 19 61; 131 1 3 7 11 23 15 103; 137 1 3 7 13 13 15 69; "
    "143 1 1 3 13 7 35 63; 145 1 3 5 9 1 25 53; 157 1 3 1 13 9 35 107; "
    "167 1 3 1 5 27 61 31; 171 1 1 5 11 19 41 61; 185 1 3 5 3 3 13 69; "
    "191 1 1 7 13 1 19 1; 193 1 3 7 5 13 19 59; 203 1 1 3 9 25 29 41; "
    "211 1 3 5 13 23 1 55; 213 1 3 7 3 13 59 17")
MAX_DIM = _JOE_KUO.count(";") + 1


@cache
def _directions(dim):
    """(dim, BITS) direction numbers, number j shifted left by BITS-1-j."""
    table = []
    for row in _JOE_KUO.split(";")[:dim]:
        poly, *v = map(int, row.split())
        m = poly.bit_length() - 1
        v = v or [1] * BITS
        for j in range(len(v), BITS):
            new = v[j - m]
            for k in range(m):
                if poly >> (m - 1 - k) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        table.append([vj << (BITS - 1 - j) for j, vj in enumerate(v)])
    return np.array(table, dtype=np.int64)


def sobol(dim, n, seed):
    """The first n points of the scrambled Sobol sequence in [0, 1)^dim."""
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, BITS), dtype=np.uint32) @ (
        2 ** np.arange(BITS, dtype=np.uint32))
    ltm = np.tril(rng.integers(2, size=(dim, BITS, BITS), dtype=np.uint32))
    ltm[:, range(BITS), range(BITS)] = 1
    # bit BITS-1-p of a scrambled number is the parity of the bits it
    # shares with row p of ltm, read top bit first
    top = BITS - 1 - np.arange(BITS)
    digits = _directions(dim)[:, :, None] >> top & 1
    sv = ((digits @ ltm.transpose(0, 2, 1) & 1) << top).sum(axis=2)
    # point k >= 1 XORs in the direction number of k's lowest set bit
    k = np.arange(1, n)
    low = np.frexp(k & -k)[1] - 1
    quasi = np.bitwise_xor.accumulate(np.vstack([shift, sv[:, low].T]))
    return quasi * 2.0 ** -BITS


_EXP_M2, _S2PI = 0.1353352832366127, 2.5066282746310007  # exp(-2), sqrt(2pi)
# cephes' ndtri coefficients, highest power first; each Q gains the
# leading 1 that p1evl implies
_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703,
       13.931260938727968, -1.2391658386738125)
_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905,
       -225.46268785411937, 200.26021238006066, -82.03722561683334,
       15.90562251262117, -1.1833162112133)
_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213,
       44.08050738932008, 14.684956192885803, 2.1866330685079025,
       -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672,
       15.04253856929075, 2.504649462083094, -0.14218292285478779,
       -0.03808064076915783, -0.0009332594808954574)
_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444,
       1.3330346081580755, 0.20148538954917908, 0.012371663481782003,
       0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132,
       0.21623699359449663, 0.013420400608854318, 0.00032801446468212774,
       2.8924786474538068e-06, 6.790194080099813e-09)


def _polevl(x, coef):
    """Horner's rule, as cephes' polevl and p1evl take it."""
    return reduce(lambda ans, c: ans * x + c, coef)


def ndtri(y):
    """The x with Phi(x) = y, for a float y in (0, 1)."""
    upper = y > 1.0 - _EXP_M2
    y = 1.0 - y if upper else y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x
