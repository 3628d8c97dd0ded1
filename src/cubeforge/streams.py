"""numpy's random streams for many keys at once, in whole-array arithmetic.

`key_states` is SeedSequence(seed, spawn_key=(i, j)).generate_state(4,
np.uint64) for every (i, j) of a grid: the pool of four uint32 words, hashmix
and mix. `pcg_outputs` seeds PCG64 (O'Neill 2014) from such states as numpy
does and returns its first XSL-RR outputs, by 128-bit affine jumps held as
uint64 halves. `lemire` is the bounded step of Generator.integers (Lemire,
"Fast random integer generation in an interval", 2019) on 32-bit words,
flagging each word numpy would reject. `tests/test_random.py` pins every
state, word and value against numpy.
"""
import itertools

import numpy as np

M32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HC_A = [0x43B0D7E5 * pow(0x931E8875, t, 2 ** 32) % 2 ** 32 for t in range(25)]
_HC_B = np.array([0x8B51F9DD * pow(0x58F38DED, t, 2 ** 32) % 2 ** 32
                  for t in range(9)], dtype=np.uint32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, hc, hc_next):
    """SeedSequence's hashmix of `value` under the hash constant hc, whose
    successor is hc_next (ints, or uint32 arrays that broadcast)."""
    value = (value ^ hc) * hc_next & M32
    return value ^ value >> 16


def _mix(x, y):
    x = (x * _MIX_L - y * _MIX_R) & M32
    return x ^ x >> 16


def key_states(seed: int, samples, levels) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(i, j)).generate_state(4, np.uint64) for
    every sample i (rows) and level index j (columns), both uint32 arrays: a
    (len(samples), len(levels), 4) array. A spawned sequence pads the seed
    to four words, so the first 16 hash constants mix the seed alone."""
    pool = [_hashmix(w, _HC_A[t], _HC_A[t + 1])
            for t, w in enumerate((seed & M32, seed >> 32, 0, 0))]
    for t, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HC_A[t],
                                             _HC_A[t + 1]))
    pool = np.array(pool, dtype=np.uint32)
    hc = np.array(_HC_A, dtype=np.uint32)
    for t, word in ((16, samples[:, None, None]), (20, levels[:, None])):
        pool = _mix(pool, _hashmix(word, hc[t:t + 4], hc[t + 1:t + 5]))
    state = _hashmix(pool[..., [0, 1, 2, 3, 0, 1, 2, 3]], _HC_B[:8],
                     _HC_B[1:]).astype(np.uint64)
    return state[..., 0::2] | state[..., 1::2] << 32


def pcg_jumps(n: int) -> np.ndarray:
    """(4, n) uint64 halves a_hi, a_lo, g_hi, g_lo of the maps that take a
    PCG64 seeding's x = initstate + inc to the state behind output t = 1..n:
    a*x + g*inc (mod 2**128). Seeding steps once from x, each output once
    more."""
    a, g, rows = _PCG_MULT, 1, []
    for _ in range(n):
        a, g = a * _PCG_MULT % 2 ** 128, (g * _PCG_MULT + 1) % 2 ** 128
        rows.append((a >> 64, a & 2 ** 64 - 1, g >> 64, g & 2 ** 64 - 1))
    return np.array(rows, dtype=np.uint64).T


def pcg_outputs(states, jumps) -> np.ndarray:
    """PCG64(SeedSequence).random_raw(n) for each row of `states` (its
    generate_state(4, np.uint64)), n = jumps' width: a (rows, n) array."""
    s_hi, s_lo, i_hi, i_lo = (states[:, q, None] for q in range(4))
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    x_hi, x_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    a_hi, a_lo, g_hi, g_lo = jumps
    hi, lo = _add128(*_mul128(x_hi, x_lo, a_hi, a_lo),
                     *_mul128(inc_hi, inc_lo, g_hi, g_lo))
    x, rot = hi ^ lo, hi >> 58          # XSL-RR
    return x >> rot | x << (64 - rot & 63)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) of a * b mod 2**128; the high word of a_lo * b_lo comes from
    32-bit limbs."""
    a0, a1, b0, b1 = a_lo & M32, a_lo >> 32, b_lo & M32, b_lo >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & M32) + a0 * b1
    carry = a1 * b1 + (t >> 32) + (w >> 32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def lemire(words, bound):
    """Generator.integers(0, bound) from uint64 `words` below 2**32, one a
    draw: (values, rejected), where `rejected` flags a word numpy would
    discard and replace by the next (its leftover falls below
    2**32 % bound)."""
    bound = np.asarray(bound, dtype=np.uint64)
    m = words * bound
    return (m >> 32).astype(np.intp), (m & M32) < (1 << 32) % bound
