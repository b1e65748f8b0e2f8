"""RL001 negative fixture: all writes, slot writes included, live in the
registered build method."""


class Lazy:
    """Stand-in for ``repro.obs.lazy.Lazy``: analyzed, never run."""

    def __init__(self, name):
        self.name = name

    def set(self, value):
        return value


class SharedCache:
    def __init__(self):
        self._value = None
        self._slot = Lazy("shared.slot")
        self.stats = {"builds": 0}

    def build(self):
        self._value = 42
        self._slot.set(self._value)
        self.stats["builds"] += 1
        return self._value

    def get(self):
        if self._value is None:
            raise RuntimeError("call build() first")
        return self._value
