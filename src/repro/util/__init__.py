"""Cross-cutting utilities shared by every layer (no repro imports)."""

from .atomic_io import AtomicJournal, atomic_write, atomic_write_text

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "AtomicJournal",
]
