"""The package's one random generator: numpy's PCG64 stream, without numpy.

Every draw roipack makes comes from here. Each generator starts from an
int key exactly as `numpy.random.default_rng(key)` does, so this module
ports the three pieces that stream goes through:

  * SeedSequence (numpy/random/bit_generator.pyx): each int of the key
    becomes its little-endian 32-bit words (0 becomes one word 0), the
    words are hashed into a 4-word pool, and `generate_state(4, uint64)`
    is drawn from the pool;
  * PCG64 seeding (`pcg_setseq_128_srandom_r`) from those four 64-bit
    words;
  * the PCG64 step, a 128-bit LCG, and its XSL-RR output (O'Neill, 2014),
    with `next_double`, numpy's `random()`.

Python ints carry the 32-, 64- and 128-bit arithmetic, masked after every
step that can overflow, so `next64` and `next_double` equal numpy's to the
bit. The draws built on them use textbook methods, not numpy's: `uniform`
(numpy's affine map), bounded `integers` (Lemire, 2019), `beta` (Cheng,
1978) and `normal_pair` (the polar method of Marsaglia and Bray, 1964). So
the bytes of `gen` and `run` depend neither on numpy nor on the vector
kernels numpy picks for the host's CPU, and the normals are not numpy's.
"""

import math
from typing import Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence hashing constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# The PCG64 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645

_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# Cheng's beta: ln 4, and the largest double and its log, at which W is clamped.
_LN4, _DBL_MAX, _LN_DBL_MAX = 1.3862944, 1.7976931348623157e308, 709.782712893384


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The first count + 1 values of a SeedSequence hash constant."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return values


# Each SeedSequence hash xors a word with the running hash constant, steps
# the constant and multiplies by it. The constant runs through the same
# values on every key, so each step below carries its (xor, multiplier)
# pair. The pool is filled with the first 4 entropy words hashed, then
# mixed with each of its other words hashed (12 steps), then with every
# further entropy word hashed; the 8 output words hash the pool cyclically
# under a second constant.
_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_FILL_STEPS = tuple(zip(_A[:_POOL_SIZE], _A[1 : _POOL_SIZE + 1]))
_MIX_STEPS = tuple(
    (src, dst, x, m)
    for (src, dst), x, m in zip(
        [(s, d) for s in range(_POOL_SIZE) for d in range(_POOL_SIZE) if s != d],
        _A[_POOL_SIZE:],
        _A[_POOL_SIZE + 1 :],
    )
)
_B = _hash_constants(_INIT_B, _MULT_B, 8)
_OUTPUT_STEPS = tuple((i % _POOL_SIZE, x, m) for i, x, m in zip(range(8), _B, _B[1:]))


def _entropy_words(key: Sequence[int]) -> list[int]:
    """The key's ints as little-endian 32-bit words; 0 is one word 0."""
    words = []
    for n in key:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _MASK32)
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
    return words


def _seed_words(key: Sequence[int]) -> list[int]:
    """`SeedSequence(key).generate_state(4, numpy.uint64)`."""
    entropy = _entropy_words(key)
    pool = []
    for i, (x, m) in enumerate(_FILL_STEPS):
        v = ((entropy[i] if i < len(entropy) else 0) ^ x) * m & _MASK32
        pool.append(v ^ v >> _XSHIFT)
    for src, dst, x, m in _MIX_STEPS:
        v = (pool[src] ^ x) * m & _MASK32
        v = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> _XSHIFT)) & _MASK32
        pool[dst] = v ^ v >> _XSHIFT
    hash_const = _A[-1]
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            v = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            v = v * hash_const & _MASK32
            v = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> _XSHIFT)) & _MASK32
            pool[dst] = v ^ v >> _XSHIFT
    words = []
    for i, x, m in _OUTPUT_STEPS:
        v = (pool[i] ^ x) * m & _MASK32
        words.append(v ^ v >> _XSHIFT)
    # Word pairs read as little-endian uint64s.
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """numpy's PCG64 bit generator and the draws `gen` and the simulated
    detector make from it.

    `state` and `inc` are the raw 128-bit LCG state and increment, the
    values numpy's `PCG64.state["state"]` holds.
    """

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state = state
        self.inc = inc

    @classmethod
    def from_key(cls, key: Sequence[int]) -> "PCG64":
        """The generator `numpy.random.default_rng(list(key))` starts from."""
        s_hi, s_lo, i_hi, i_lo = _seed_words(key)
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: step from 0, add the initial state, step.
        state = (inc + (s_hi << 64 | s_lo)) & _MASK128
        return cls((state * _PCG_MULT + inc) & _MASK128, inc)

    def next64(self) -> int:
        """Step the LCG, then output XSL-RR: rotate hi ^ lo right by hi >> 58."""
        state = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        hi = state >> 64
        value = (hi ^ state) & _MASK64
        rot = hi >> 58
        return (value >> rot | value << (64 - rot)) & _MASK64

    def next_double(self) -> float:
        """A uniform on [0, 1): `Generator.random()`, and `.uniform()`,
        whose 0.0 + 1.0 * u is u exactly."""
        return (self.next64() >> 11) * _DOUBLE_UNIT

    def normal_pair(self) -> tuple[float, float]:
        """Two independent N(0, 1) draws by Marsaglia and Bray's (1964)
        polar method: (x, y) uniform on the square (-1, 1)², redrawn until
        0 < s = x² + y² < 1, scaled by sqrt(-2 ln s / s)."""
        while True:
            x = 2.0 * self.next_double() - 1.0
            y = 2.0 * self.next_double() - 1.0
            s = x * x + y * y
            if 0.0 < s < 1.0:
                f = math.sqrt(-2.0 * math.log(s) / s)
                return x * f, y * f

    def uniform(self, lo: float, hi: float) -> float:
        """A uniform on [lo, hi): numpy's map, lo + (hi - lo) * u."""
        return lo + (hi - lo) * self.next_double()

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi) by Lemire's multiply-shift; its bias is below
        (hi - lo) / 2**64."""
        return lo + (self.next64() * (hi - lo) >> 64)

    def beta(self, a: float, b: float) -> float:
        """A Beta(a, b) draw, any a, b > 0, by Cheng's (1978) BB (both shapes
        above 1) or BC, after R's `rbeta`: a few trials of two uniforms each
        at every shape. The uniforms lie in (0, 1), so no log sees 0, and W is
        clamped to the largest double."""
        lo, hi = min(a, b), max(a, b)
        alpha = lo + hi
        if lo > 1.0:
            beta = math.sqrt((alpha - 2.0) / (2.0 * lo * hi - alpha))
        else:
            beta, delta = 1.0 / lo, 1.0 + hi - lo
            k1 = delta * (0.0138889 + 0.0416667 * lo) / (hi * beta - 0.777778)
            k2 = 0.25 + (0.5 + 0.25 / delta) * lo
        while True:
            u1, u2 = self._open_double(), self._open_double()
            v = beta * math.log(u1 / (1.0 - u1))
            w = min((lo if lo > 1.0 else hi) * math.exp(min(v, _LN_DBL_MAX)), _DBL_MAX)
            z = u1 * u1 * u2
            if lo > 1.0:  # BB
                r = (lo + 1.0 / beta) * v - _LN4
                s = lo + r - w
                if (s + 2.609438 >= 5.0 * z or s > math.log(z)
                        or r + alpha * (math.log(alpha) - math.log(hi + w)) >= math.log(z)):
                    return w / (hi + w) if a == lo else hi / (hi + w)
            elif u1 < 0.5 and 0.25 * u2 + z - u1 * u2 >= k1 or u1 >= 0.5 and z >= k2:
                continue  # BC
            elif u1 >= 0.5 and z <= 0.25 or (
                    alpha * (math.log(alpha) - math.log(lo + w) + v) - _LN4 >= math.log(z)):
                return lo / (lo + w) if a == lo else w / (lo + w)

    def _open_double(self) -> float:
        """A uniform on (0, 1): the midpoint of one of 2**52 equal cells."""
        return ((self.next64() >> 12) + 0.5) * (2.0 * _DOUBLE_UNIT)
