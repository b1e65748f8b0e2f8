"""Runtime write-sanitizer for the audit read path.

The static side of the shared-state contract lives in ``tools/reprolint``
(RL001: methods reachable from the read API may not write shared state);
this module is the dynamic side.  :func:`freeze_session` walks a fitted
:class:`~repro.core.AuditSession`'s shared caches — the encoded matrices,
the influence artifacts bundle, the predicate alphabets, the per-group
fairness contexts — and flips every NumPy array it finds to
``writeable=False``.  Any in-place mutation on the read path then raises
``ValueError: assignment destination is read-only`` at the write site,
instead of silently corrupting an answer some other query later reads.

Freezing guards *buffer mutation* only: attribute rebinding (a lazy cache
assigning ``self._x = new_array``) is untouched, which is exactly the
split RL001 polices statically.  Registered edit entry points
(:meth:`AuditSession.apply_edit`) patch shared buffers in place by
design, so the :class:`Freezer` supports thaw → edit → refreeze;
:func:`install_session_sanitizer` wires that protocol onto the session
class for sanitized test runs (``REPRO_SANITIZE=1``).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

#: How deep the attribute/container walk follows object graphs.  The
#: session's shared caches are all within a few hops; the cap keeps the
#: walk from wandering into unrelated object graphs through back-pointers.
_MAX_DEPTH = 6


def iter_arrays(obj: object, depth: int = 0, seen: set[int] | None = None) -> Iterator[np.ndarray]:
    """Yield every ndarray reachable from ``obj`` through dicts, sequences,
    and instance ``__dict__`` attributes (cycle-safe, depth-capped)."""
    if obj is None or depth > _MAX_DEPTH:
        return
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        for value in obj.values():
            yield from iter_arrays(value, depth + 1, seen)
        return
    if isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            yield from iter_arrays(value, depth + 1, seen)
        return
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        for value in attrs.values():
            yield from iter_arrays(value, depth + 1, seen)


class Freezer:
    """Tracks which arrays were frozen so an edit can thaw exactly those.

    ``freeze`` records each array's prior writeable flag; ``thaw``
    restores it.  Restoring ``writeable=True`` on a view requires its base
    to be writeable at that moment, so ``thaw`` retries in passes until
    the dependency order resolves itself.
    """

    def __init__(self) -> None:
        self._frozen: List[Tuple[np.ndarray, bool]] = []

    def freeze(self, *objects: object) -> "Freezer":
        seen: set[int] = set()
        already = {id(arr) for arr, _ in self._frozen}
        for obj in objects:
            for arr in iter_arrays(obj, seen=seen):
                if id(arr) in already:
                    continue
                already.add(id(arr))
                if arr.flags.writeable:
                    self._frozen.append((arr, True))
                    arr.flags.writeable = False
        return self

    def thaw(self) -> None:
        pending = self._frozen
        self._frozen = []
        for _ in range(4):
            failed: List[Tuple[np.ndarray, bool]] = []
            for arr, flag in pending:
                try:
                    arr.flags.writeable = flag
                except ValueError:
                    failed.append((arr, flag))
            if not failed:
                return
            pending = failed
        raise RuntimeError(
            f"could not restore the writeable flag on {len(pending)} array(s); "
            "a frozen view outlived its base"
        )


def freeze_session(session) -> Freezer:
    """Freeze a fitted session's shared read state; returns the Freezer.

    Covers the encoded matrices, the influence artifacts bundle (gradients,
    Hessian, factorizations, rank-one factors, the model's parameters), the
    alphabet cache (predicate masks, packed tidlists), and the cached
    fairness contexts.  Caller-owned raw tables are deliberately not
    walked (``AlphabetCache.table`` / the datasets): the contract covers
    state the *session* serves, not inputs the caller still owns.
    """
    freezer = Freezer()
    freezer.freeze(
        session.X_train,
        session.X_test,
        session.artifacts,
        session._contexts,
    )
    cache = session.alphabet_cache
    if cache is not None:
        freezer.freeze(cache._alphabets)
    return freezer


_INSTALLED = False


def install_session_sanitizer() -> None:
    """Patch :class:`AuditSession` so every fitted session serves frozen state.

    After the patch, ``fit`` warms the configured caches and freezes the
    shared arrays; ``apply_edit`` thaws, runs the registered edit, and
    refreezes (picking up arrays the edit swapped in).  Idempotent;
    activated by the test suite when ``REPRO_SANITIZE=1``.
    """
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True

    from repro.core.session import AuditSession

    orig_fit = AuditSession.fit
    orig_apply_edit = AuditSession.apply_edit

    def fit(self, *args, **kwargs):
        out = orig_fit(self, *args, **kwargs)
        self.warm()
        self._freezer = freeze_session(self)
        return out

    def apply_edit(self, edit):
        freezer = getattr(self, "_freezer", None)
        if freezer is not None:
            freezer.thaw()
        try:
            return orig_apply_edit(self, edit)
        finally:
            if freezer is not None:
                self._freezer = freeze_session(self)

    fit.__doc__ = orig_fit.__doc__
    apply_edit.__doc__ = orig_apply_edit.__doc__
    AuditSession.fit = fit
    AuditSession.apply_edit = apply_edit
