"""Qubit-level synthesis and gate-count estimation for qudit SUM gates and
quantum Reed-Solomon encoder building blocks."""

from .circuit import (
    Circuit, Control, CostBreakdown, Gate, Meta, Register, RegisterTable, Wire,
    parse, serialize,
)
from .galois import FieldSpec, is_prime
from .sumsynth import SumPlan, plan, predicted_counts, synth_mod, synth_rca, synth_sum
from .lowering import GadgetDescriptor, Strategy, lower_circuit
from .gf2m import RSCodeSpec, build_code, synth_cmuladd, synth_encoder_gf2m, verify_cmuladd
from .revsim import VerificationReport, truth_table, verify_sum
from .analysis import Convention, SweepReport, SweepRow, ratio_curve, sum_gate_count, sweep

__version__ = "0.1.0"
