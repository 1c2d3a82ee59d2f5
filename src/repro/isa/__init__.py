"""SPISA: the SlackSim reproduction's from-scratch 64-bit RISC ISA.

This subpackage replaces SimpleScalar/PISA (DESIGN.md §2): opcode metadata,
instruction encoding, a two-pass assembler, a disassembler and the program
image format consumed by the loader.
"""
