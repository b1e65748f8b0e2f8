"""RL002 negative fixture: every lazy slot's counter is declared, in a
stats dict literal or by ``setdefault``, and named positionally or by
keyword."""


class Lazy:
    """Stand-in for ``repro.obs.lazy.Lazy``: analyzed, never run."""

    def __init__(self, name, stats=None, counter=None, lock=None):
        self.name = name


class Owner:
    def __init__(self):
        self.stats = {"builds": 0}
        self.stats.setdefault("patches", 0)
        self._value = Lazy("owner.value", self.stats, "builds")
        self._patched = Lazy("owner.patched", stats=self.stats, counter="patches")
        self._memo = Lazy("owner.memo", counter=None)
