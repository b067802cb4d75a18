"""Oracle tests for range-pruned symbolic packet access.

``smt.unsigned_range`` bounds the values a bitvector term can take;
``SymbolicPacket.select`` and the engine's symbolic-offset store emit ite
arms only for positions inside that bound.  The bound must hold under
every assignment, and a pruned term must evaluate exactly like the
unpruned one-arm-per-position construction.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import smt
from repro.ir import ProgramBuilder
from repro.symbex import SymbolicEngine
from repro.symbex.state import SymbolicPacket

PACKET_LENGTH = 24
#: Offsets are built over these 1-8 bit variables, zero-extended to 64.
VARIABLES = {f"v{width}": width for width in range(1, 9)}


def _leaf(width, name):
    return smt.ZeroExt(64 - width, smt.BitVec(name, width))


@st.composite
def offset_terms(draw, depth=4):
    """Random 64-bit offset terms: zero-extended small variables, constants,
    adds, masks, multiplications by constants and ites."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            name = draw(st.sampled_from(sorted(VARIABLES)))
            return _leaf(VARIABLES[name], name)
        return smt.BitVecVal(draw(st.integers(0, 40)), 64)
    kind = draw(st.sampled_from(["add", "and", "mul", "ite", "sub"]))
    left = draw(offset_terms(depth=depth - 1))
    if kind == "add":
        return left + draw(offset_terms(depth=depth - 1))
    if kind == "and":
        return left & smt.BitVecVal(draw(st.integers(0, 255)), 64)
    if kind == "mul":
        return left * smt.BitVecVal(draw(st.integers(0, 5)), 64)
    if kind == "sub":
        # Not understood by the bound: must fall back to the full range.
        return left - draw(offset_terms(depth=depth - 1))
    right = draw(offset_terms(depth=depth - 1))
    condition = smt.ULT(left, draw(offset_terms(depth=depth - 1)))
    return smt.If(condition, left, right)


assignments = st.fixed_dictionaries(
    {name: st.integers(0, (1 << width) - 1) for name, width in VARIABLES.items()}
)


def _unpruned_select(packet, offset, length_guard):
    result = smt.BitVecVal(0, 8)
    for index in range(min(len(packet), length_guard)):
        result = smt.If(smt.Eq(offset, smt.BitVecVal(index, 64)), packet.byte(index), result)
    return result


def _packet_env(data):
    return {f"in_b{index}": value for index, value in enumerate(data)}


class TestUnsignedRange:
    @settings(max_examples=200, deadline=None)
    @given(term=offset_terms(), env=assignments)
    def test_value_lies_inside_the_range(self, term, env):
        low, high = smt.unsigned_range(term)
        assert 0 <= low <= high <= (1 << 64) - 1
        assert low <= smt.evaluate(term, env) <= high

    def test_understood_shapes(self):
        byte = smt.ZeroExt(56, smt.BitVec("b", 8))
        assert smt.unsigned_range(smt.BitVecVal(7, 64)) == (7, 7)
        assert smt.unsigned_range(byte + 20) == (20, 275)
        assert smt.unsigned_range((byte & 0x0F) * 4) == (0, 60)
        assert smt.unsigned_range(smt.If(smt.Bool("c"), byte + 1, smt.BitVecVal(0, 64))) == (
            0,
            256,
        )

    def test_overflow_and_unknown_ops_get_the_full_range(self):
        full = (0, (1 << 64) - 1)
        wide = smt.BitVec("w", 64)
        assert smt.unsigned_range(wide + 1) == full
        assert smt.unsigned_range(smt.ZeroExt(56, smt.BitVec("b", 8)) - 1) == full
        assert smt.unsigned_range(smt.BitVec("n", 8)) == (0, 255)

    def test_depth_5000_offset_gets_a_range(self):
        term = smt.ZeroExt(56, smt.BitVec("b", 8))
        for index in range(5000):
            term = smt.If(smt.Bool(f"c{index}"), term + 1, term & 0x3F)
        low, high = smt.unsigned_range(term)
        assert low == 0 and high == 255 + 5000


class TestPrunedAccess:
    @settings(max_examples=150, deadline=None)
    @given(
        offset=offset_terms(),
        env=assignments,
        data=st.lists(st.integers(0, 255), min_size=PACKET_LENGTH, max_size=PACKET_LENGTH),
        guard=st.integers(0, PACKET_LENGTH + 4),
    )
    def test_select_equals_unpruned(self, offset, env, data, guard):
        packet = SymbolicPacket.fresh(PACKET_LENGTH)
        pruned = packet.select(offset, guard)
        reference = _unpruned_select(packet, offset, guard)
        full_env = {**env, **_packet_env(data)}
        assert smt.evaluate(pruned, full_env) == smt.evaluate(reference, full_env)

    @settings(max_examples=60, deadline=None)
    @given(
        offset=offset_terms(depth=3),
        env=assignments,
        data=st.lists(st.integers(0, 255), min_size=PACKET_LENGTH, max_size=PACKET_LENGTH),
        nbytes=st.integers(1, 4),
    )
    def test_store_equals_unpruned(self, offset, env, data, nbytes):
        constant = smt.simplify(offset)
        # A constant offset takes the engine's concrete path, which only
        # runs after the bounds check has ruled an overrun out.
        assume(constant.op != smt.Op.BV_CONST or constant.value + nbytes <= PACKET_LENGTH)
        value = smt.ZeroExt(48, smt.BitVec("val", 16))
        state_packet = SymbolicPacket.fresh(PACKET_LENGTH)

        class _State:
            packet = state_packet

        SymbolicEngine()._store(_State, offset, nbytes, value)
        # The reference: one ite per packet position, every position.
        reference = SymbolicPacket.fresh(PACKET_LENGTH)
        for index in range(nbytes):
            shift = 8 * (nbytes - 1 - index)
            byte_value = smt.Extract(shift + 7, shift, value)
            target = smt.simplify(offset + smt.BitVecVal(index, 64))
            for position in range(PACKET_LENGTH):
                reference.set_byte(
                    position,
                    smt.If(
                        smt.Eq(target, smt.BitVecVal(position, 64)),
                        byte_value,
                        reference.byte(position),
                    ),
                )
        full_env = {**env, **_packet_env(data), "val": 0xBEEF}
        for position in range(PACKET_LENGTH):
            assert smt.evaluate(state_packet.byte(position), full_env) == smt.evaluate(
                reference.byte(position), full_env
            )

    def test_select_emits_only_reachable_arms(self):
        packet = SymbolicPacket.fresh(PACKET_LENGTH)
        offset = smt.ZeroExt(56, smt.BitVec("in_b21", 8)) + 20
        read = packet.select(offset, PACKET_LENGTH)
        # Positions 20..23 only: the other 20 arms could never be taken.
        guards = {
            int(node.args[1].value)
            for node in smt.iter_dag([read])
            if node.op == smt.Op.EQ and node.args[1].op == smt.Op.BV_CONST
        }
        assert guards == {20, 21, 22, 23}

    def test_symbolic_offset_program_stays_exact(self):
        # End to end through the engine: a read and a write at a masked
        # symbolic offset summarize to segments whose replay agrees with
        # the concrete interpreter.
        from repro.ir import Interpreter

        builder = ProgramBuilder("masked")
        offset = builder.let("offset", (builder.load(0, 1) & 0x07) + 8)
        value = builder.let("value", builder.load(offset, 1))
        builder.store(builder.reg("offset") + 1, 1, value + 1)
        builder.emit(0)
        program = builder.build()
        summary = SymbolicEngine().summarize_element(program, PACKET_LENGTH)
        assert len(summary.segments) == 1
        segment = summary.segments[0]
        for first in (0, 3, 7, 0xFF):
            data = bytes([first] + list(range(1, PACKET_LENGTH)))
            concrete = Interpreter().run(program, bytearray(data), None, None)
            env = _packet_env(data)
            symbolic = bytes(
                smt.evaluate(byte, env) for byte in segment.output_bytes
            )
            assert symbolic == bytes(concrete.data)
