"""Durable content-addressed result store (the serving fast path).

``repro.store`` unifies the repo's three historical cache keyings --
the trace LRU, the checkpoint caches, and the serve/fabric result
caches -- behind one addressing scheme
(:func:`repro.store.address.content_address`) and adds the durable
tier: :class:`repro.store.cas.ResultStore`, a crash-consistent
on-disk store keyed by a content hash of (settings fingerprint,
run kind, config, workload, extras, seed, sim version).

:class:`~repro.experiments.runner.SweepRunner` (and through it
``SimService`` and the fabric coordinator) reads through the store: a
cell that any previous process anywhere already simulated is served
from disk without touching a cycle engine.  ``repro store fsck`` and
``repro store gc`` are the operator-facing maintenance commands.

Only :mod:`repro.store.address` is imported eagerly -- it is pure
hashing and safe everywhere (the trace cache keys through it at import
time).  :class:`ResultStore` pulls in the result codecs
(:mod:`repro.store.codecs`), so it is exported lazily to keep low-level modules importable without dragging
in the simulation stack.
"""

from repro.store.address import content_address

__all__ = ["content_address", "ResultStore", "ENTRY_SCHEMA"]


def __getattr__(name):
    if name in ("ResultStore", "ENTRY_SCHEMA"):
        from repro.store import cas

        return getattr(cas, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
