"""Vigna's splitmix64.c in Python integers: the reference that the suites' draws are checked
against, one trial at a time.

    uint64_t next() {
        uint64_t z = (x += 0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
        z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
        return z ^ (z >> 31);
    }

Trial i of a suite with K doubles per trial starts from the state after i K calls,
x = seed + i K GAMMA mod 2**64, and its k-th double is the top 53 bits of the next call.
"""

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed, skip=0):
        """The generator seeded with ``seed``, after ``skip`` calls of next()."""
        self.x = (seed + skip * GAMMA) & MASK

    def next(self):
        self.x = (self.x + GAMMA) & MASK
        z = self.x
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & MASK
        return z ^ z >> 31

    def random(self):
        """The next double in [0, 1): the top 53 bits of next()."""
        return (self.next() >> 11) * 2.0**-53

    def uniform(self, lo, hi):
        """lo + (hi - lo) times the next double, as numpy's Generator.uniform forms it."""
        return lo + (hi - lo) * self.random()

