"""Register name parsing and conventions."""

import pytest

from repro.errors import AssemblyError
from repro.isa.registers import (
    LINK_REGISTER,
    NUM_REGISTERS,
    SP_REGISTER,
    ZERO_REGISTER,
    register_name,
    register_number,
)


class TestRegisterNumber:
    def test_plain_names(self):
        assert register_number("r0") == 0
        assert register_number("r31") == 31
        assert register_number("r17") == 17
        assert register_number("r07") == 7

    def test_aliases(self):
        assert register_number("zero") == ZERO_REGISTER == 0
        assert register_number("lr") == LINK_REGISTER == 1
        assert register_number("sp") == SP_REGISTER == 30

    def test_case_and_whitespace_insensitive(self):
        assert register_number(" R7 ") == 7
        assert register_number("SP") == SP_REGISTER

    @pytest.mark.parametrize(
        # fullwidth and Arabic-Indic digits pass str.isdigit() and int()
        "bad", ["r32", "r-1", "x5", "", "r", "r3a", "32", "r\uff13", "r\u0663", "R\uff11\uff12"]
    )
    def test_invalid_names_raise(self, bad):
        with pytest.raises(AssemblyError):
            register_number(bad)


class TestRegisterName:
    def test_round_trip(self):
        for number in range(NUM_REGISTERS):
            assert register_number(register_name(number)) == number

    @pytest.mark.parametrize("bad", [-1, 32, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            register_name(bad)
