"""RL002 positive fixture: lazy slots whose counters cannot be checked.

Two findings are seeded: one slot counts under ``bilds``, which no stats
dict declares, and one names its counter by a variable.  The slot that
names no counter is not a finding.
"""


class Lazy:
    """Stand-in for ``repro.obs.lazy.Lazy``: analyzed, never run."""

    def __init__(self, name, stats=None, counter=None, lock=None):
        self.name = name


class Owner:
    def __init__(self, counter):
        self.stats = {"builds": 0}
        self._value = Lazy("owner.value", self.stats, "bilds")
        self._other = Lazy("owner.other", self.stats, counter=counter)
        self._memo = Lazy("owner.memo")
