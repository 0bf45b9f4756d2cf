"""The per-CPU Interrupt Descriptor Table and gate encoding.

A real x86-64 IDT holds 256 16-byte gate descriptors in one 4 KiB
page.  The simulator keeps that geometry: vector ``v`` occupies words
``2v`` (handler linear address) and ``2v + 1`` (attributes word: the
present bit plus a structural checksum standing in for the fixed bit
patterns a real gate must carry).

A *blind* overwrite of a descriptor therefore produces an invalid gate
— delivering an exception through it escalates to a double fault, which
is exactly the failure mode the XSA-212-crash use case relies on.  An
attacker who knows the format (it is architectural) can still forge a
fully valid gate, which is what XSA-212-priv does.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import MachineError
from repro.xen.constants import IDT_PRESENT_BIT, IDT_VECTORS
from repro.xen.machine import Machine

_CHECK_MASK = (1 << 47) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def gate_checksum(handler_va: int) -> int:
    """Structural checksum a valid gate's attribute word must carry."""
    return ((handler_va ^ (handler_va >> 17)) * _GOLDEN) & _CHECK_MASK


def encode_gate(handler_va: int) -> Tuple[int, int]:
    """Encode a valid gate for ``handler_va``: ``(word0, word1)``.

    This function is "architecturally public": exploits may use it to
    forge valid descriptors, just as a real attacker consults the
    Intel SDM.
    """
    handler_va &= (1 << 64) - 1
    return handler_va, IDT_PRESENT_BIT | gate_checksum(handler_va)


def decode_gate(word0: int, word1: int) -> Optional[int]:
    """Return the handler address of a gate, or ``None`` if invalid."""
    if not word1 & IDT_PRESENT_BIT:
        return None
    if (word1 & _CHECK_MASK) != gate_checksum(word0):
        return None
    return word0


class IDT:
    """View over one IDT frame."""

    def __init__(self, machine: Machine, mfn: int):
        self.machine = machine
        self.mfn = mfn

    @staticmethod
    def _check_vector(vector: int) -> None:
        if not 0 <= vector < IDT_VECTORS:
            raise MachineError(f"bad interrupt vector {vector}")

    def set_gate(self, vector: int, handler_va: int) -> None:
        self._check_vector(vector)
        word0, word1 = encode_gate(handler_va)
        self.machine.write_word(self.mfn, 2 * vector, word0)
        self.machine.write_word(self.mfn, 2 * vector + 1, word1)

    def fill(self, handler_va: int, overrides: Dict[int, int]) -> None:
        """Point every gate at ``handler_va``, then each vector of
        ``overrides`` at its own handler, in one machine write.

        The table ends up as :meth:`set_gate` over every vector and
        then over ``overrides`` would leave it.
        """
        words = list(encode_gate(handler_va)) * IDT_VECTORS
        for vector, vector_va in overrides.items():
            self._check_vector(vector)
            words[2 * vector : 2 * vector + 2] = encode_gate(vector_va)
        self.machine.write_words(self.mfn, 0, words)

    def clear_gate(self, vector: int) -> None:
        self._check_vector(vector)
        self.machine.write_word(self.mfn, 2 * vector, 0)
        self.machine.write_word(self.mfn, 2 * vector + 1, 0)

    def handler(self, vector: int) -> Optional[int]:
        """Decode the gate for ``vector``; ``None`` means invalid gate."""
        self._check_vector(vector)
        word0 = self.machine.read_word(self.mfn, 2 * vector)
        word1 = self.machine.read_word(self.mfn, 2 * vector + 1)
        return decode_gate(word0, word1)

    def gate_words(self, vector: int) -> Tuple[int, int]:
        self._check_vector(vector)
        return (
            self.machine.read_word(self.mfn, 2 * vector),
            self.machine.read_word(self.mfn, 2 * vector + 1),
        )

    def is_valid(self, vector: int) -> bool:
        return self.handler(vector) is not None
