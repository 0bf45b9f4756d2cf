"""Unit tests for IDT gates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.xen.idt import IDT, decode_gate, encode_gate, gate_checksum
from repro.xen.machine import Machine


@pytest.fixture
def idt():
    machine = Machine(4)
    return IDT(machine, machine.alloc_frame())


class TestGateEncoding:
    def test_roundtrip(self):
        word0, word1 = encode_gate(0xFFFF_8300_0000_1000)
        assert decode_gate(word0, word1) == 0xFFFF_8300_0000_1000

    def test_absent_gate(self):
        assert decode_gate(0, 0) is None

    def test_corrupt_handler_detected(self):
        word0, word1 = encode_gate(0xFFFF_8300_0000_1000)
        assert decode_gate(word0 ^ 1, word1) is None

    def test_corrupt_attributes_detected(self):
        word0, word1 = encode_gate(0xFFFF_8300_0000_1000)
        assert decode_gate(word0, word1 ^ 2) is None

    @given(handler=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=80)
    def test_roundtrip_property(self, handler):
        word0, word1 = encode_gate(handler)
        assert decode_gate(word0, word1) == handler & ((1 << 64) - 1)

    @given(
        handler=st.integers(min_value=0, max_value=(1 << 64) - 1),
        garbage=st.integers(min_value=1, max_value=(1 << 64) - 1),
    )
    @settings(max_examples=80)
    def test_blind_overwrite_invalidates(self, handler, garbage):
        """A blind overwrite of the handler word (the XSA-212-crash
        move) must invalidate the gate unless it collides."""
        word0, word1 = encode_gate(handler)
        corrupted = (word0 ^ garbage) & ((1 << 64) - 1)
        # decode only survives if the checksum happens to match —
        # astronomically unlikely; assert the checksum logic agrees.
        survives = (word1 & ((1 << 47) - 1)) == gate_checksum(corrupted)
        assert (decode_gate(corrupted, word1) is not None) == survives


class TestIdtObject:
    def test_set_and_read_gate(self, idt):
        idt.set_gate(14, 0xABC0)
        assert idt.handler(14) == 0xABC0
        assert idt.is_valid(14)

    def test_clear_gate(self, idt):
        idt.set_gate(14, 0xABC0)
        idt.clear_gate(14)
        assert idt.handler(14) is None

    def test_fresh_gates_invalid(self, idt):
        assert not idt.is_valid(0)

    def test_gate_words_roundtrip(self, idt):
        idt.set_gate(8, 0x1234)
        word0, word1 = idt.gate_words(8)
        assert decode_gate(word0, word1) == 0x1234

    def test_gates_do_not_alias(self, idt):
        idt.set_gate(14, 0x1000)
        idt.set_gate(15, 0x2000)
        assert idt.handler(14) == 0x1000
        assert idt.handler(15) == 0x2000

    def test_vector_bounds(self, idt):
        with pytest.raises(MachineError):
            idt.set_gate(256, 0)
        with pytest.raises(MachineError):
            idt.handler(-1)

    def test_direct_memory_corruption_detected(self, idt):
        idt.set_gate(14, 0x1000)
        idt.machine.write_word(idt.mfn, 28, 0xBAD)  # word0 of vector 14
        assert idt.handler(14) is None

    @given(
        default=st.integers(min_value=0, max_value=(1 << 64) - 1),
        overrides=st.dictionaries(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            max_size=4,
        ),
    )
    @settings(max_examples=30)
    def test_fill_equals_set_gate_per_vector(self, default, overrides):
        filled, per_gate = (IDT(Machine(2), 1) for _ in range(2))
        filled.fill(default, overrides)
        for vector in range(256):
            per_gate.set_gate(vector, default)
        for vector, handler_va in overrides.items():
            per_gate.set_gate(vector, handler_va)
        assert filled.machine.read_words(1, 0, 512) == per_gate.machine.read_words(
            1, 0, 512
        )

    def test_fill_rejects_a_bad_override_vector(self, idt):
        with pytest.raises(MachineError):
            idt.fill(0x1000, {256: 0x2000})

    def test_invalid_vectors_of_an_unmaterialised_table(self):
        machine = Machine(4)
        idt = IDT(machine, 2)  # never written: reads as zeros
        assert idt.invalid_vectors() == list(range(256))

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=511),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=60)
    def test_invalid_vectors_match_the_per_vector_check(self, writes):
        machine = Machine(4)
        idt = IDT(machine, machine.alloc_frame())
        idt.fill(0xFFFF_8300_0000_1000, {})
        for index, value in writes:
            machine.write_word(idt.mfn, index, value)
        expected = [v for v in range(256) if not idt.is_valid(v)]
        assert idt.invalid_vectors() == expected
