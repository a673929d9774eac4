"""Register file conventions.

Following the M88100: 32 general-purpose registers, ``r0`` hardwired to zero
and ``r1`` used as the subroutine link register by ``bsr``/``jsr``.  We add a
software convention of ``r30`` as stack pointer for workloads that need one
(the hardware does not treat it specially).
"""

from __future__ import annotations

from repro.errors import AssemblyError

NUM_REGISTERS = 32
ZERO_REGISTER = 0
LINK_REGISTER = 1
SP_REGISTER = 30

_ALIASES = {
    "zero": ZERO_REGISTER,
    "lr": LINK_REGISTER,
    "sp": SP_REGISTER,
}

#: canonical lower-case spellings -> number
_NUMBERS = {f"r{number}": number for number in range(NUM_REGISTERS)}
_NUMBERS.update(_ALIASES)


def register_number(name: str) -> int:
    """Parse a register operand (``r7``, ``sp``, ``lr``, ``zero``) to its
    number, raising :class:`~repro.errors.AssemblyError` on anything else.

    Case and surrounding whitespace are ignored and leading zeros are
    allowed (``r07``), but the digits must be ASCII: fullwidth or
    Arabic-Indic digits are refused.
    """
    token = name.strip().lower()
    number = _NUMBERS.get(token)
    if number is not None:
        return number
    digits = token[1:]
    if token.startswith("r") and digits.isascii() and digits.isdigit():
        number = int(digits)
        if number < NUM_REGISTERS:
            return number
    raise AssemblyError(f"invalid register {name!r}")


def register_name(number: int) -> str:
    """Canonical printable name for a register number."""
    if not 0 <= number < NUM_REGISTERS:
        raise ValueError(f"register number out of range: {number}")
    return f"r{number}"
