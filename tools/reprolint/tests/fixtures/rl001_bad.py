"""RL001 positive fixture: lazy writes on the declared read path.

Analyzed by the fixture tests with a synthetic contract set declaring
``SharedCache`` shared, ``get`` a read root, and ``build`` the only
registered build method.  Four violations are seeded: a direct lazy
write in the root, an indirect write in a helper the root calls, a lazy
slot dropped by another helper the root calls, and a write in a subclass
override of the root.
"""


class Lazy:
    """Stand-in for ``repro.obs.lazy.Lazy``: analyzed, never run."""

    def __init__(self, name):
        self.name = name

    def drop(self, reason):
        return reason


class SharedCache:
    def __init__(self):
        self._value = None
        self._slot = Lazy("shared.slot")
        self.version = 0
        self.stats = {"builds": 0}

    def get(self):
        if self._value is None:
            self._value = self._compute()
        self._expire()
        return self._refresh()

    def _refresh(self):
        self.version += 1
        return self._value

    def _expire(self):
        self._slot.drop("stale")

    def _compute(self):
        return 42

    def build(self):
        self._value = self._compute()
        self.stats["builds"] += 1
        return self._value


class DerivedCache(SharedCache):
    def get(self):
        self._hits = 1
        return super().get()
