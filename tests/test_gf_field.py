"""Unit tests for GF(2^8) field arithmetic (the pure-Python oracle)."""

import pytest

from repro.gf import scalar
from repro.gf.tables import EXP_TABLE, GF_ORDER, LOG_TABLE


def _add(a: int, b: int) -> int:
    """Field addition as the codec kernels compute it: a 1*a + 1*b
    combine (an XOR-accumulate)."""
    return scalar.combine([1, 1], [bytes([a]), bytes([b])])[0]


class TestTables:
    def test_exp_table_doubled(self):
        assert (EXP_TABLE[:255] == EXP_TABLE[255:510]).all()
        assert scalar.EXP[:255] == scalar.EXP[255:510]

    def test_exp_covers_all_nonzero(self):
        assert sorted(set(EXP_TABLE[:255].tolist())) == list(range(1, 256))
        assert sorted(set(scalar.EXP[:255])) == list(range(1, 256))

    def test_log_exp_inverse(self):
        for a in range(1, 256):
            assert EXP_TABLE[LOG_TABLE[a]] == a
            assert scalar.EXP[scalar.LOG[a]] == a


class TestAdd:
    def test_is_xor(self):
        assert _add(0b1010, 0b0110) == 0b1100

    def test_self_inverse(self):
        for a in (0, 1, 77, 255):
            assert _add(a, a) == 0

    def test_identity(self):
        assert _add(123, 0) == 123


class TestMul:
    def test_zero_annihilates(self):
        assert scalar.mul(0, 200) == 0
        assert scalar.mul(200, 0) == 0

    def test_one_is_identity(self):
        for a in range(256):
            assert scalar.mul(a, 1) == a

    def test_commutative(self):
        for a, b in [(3, 7), (200, 99), (255, 255)]:
            assert scalar.mul(a, b) == scalar.mul(b, a)

    def test_associative_sample(self):
        for a, b, c in [(3, 7, 11), (100, 200, 50)]:
            assert (scalar.mul(scalar.mul(a, b), c)
                    == scalar.mul(a, scalar.mul(b, c)))

    def test_distributes_over_add(self):
        for a, b, c in [(5, 9, 17), (130, 66, 200)]:
            assert (scalar.mul(a, _add(b, c))
                    == _add(scalar.mul(a, b), scalar.mul(a, c)))

    def test_known_value(self):
        # 0x02 * 0x80 = 0x100 -> reduced by 0x11B = 0x1B
        assert scalar.mul(0x02, 0x80) == 0x1B


class TestDivInv:
    def test_div_inverts_mul(self):
        # division is multiplication by the inverse
        for a, b in [(7, 13), (250, 3), (1, 255)]:
            assert scalar.mul(scalar.mul(a, b), scalar.inv(b)) == a

    def test_inverse_property(self):
        for a in range(1, 256):
            assert scalar.mul(a, scalar.inv(a)) == 1

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            scalar.inv(0)

    def test_zero_numerator(self):
        assert scalar.mul(0, scalar.inv(17)) == 0


class TestPow:
    """Powers, as the codec computes them: Vandermonde row ``i`` is
    ``[p**0, p**1, ...]`` for evaluation point ``p``."""

    @staticmethod
    def powers(a: int, count: int) -> list[int]:
        return scalar.vandermonde_rows([a], count)[0]

    def test_pow_zero(self):
        for a in range(1, 256):
            assert self.powers(a, 1) == [1]

    def test_pow_one(self):
        for a in (1, 99, 255):
            assert self.powers(a, 2)[1] == a

    def test_pow_matches_repeated_mul(self):
        for a in (2, 3, 77):
            row = self.powers(a, 10)
            acc = 1
            for k in range(1, 10):
                acc = scalar.mul(acc, a)
                assert row[k] == acc

    def test_order_divides_255(self):
        # a^255 == 1 for all non-zero a (multiplicative group order 255)
        for a in range(1, 256):
            assert self.powers(a, 256)[255] == 1

    def test_field_order_constant(self):
        assert GF_ORDER == 256
        assert len(scalar.LOG) == GF_ORDER
