"""Global-field spin-chain control: pulse-sequence identities, constrained
sequence synthesis, twin-wire device modeling, and schedule compilation."""

from .circuits import (Circuit, Equivalence, Exchange, GateTarget, GlobalField,
                       VerificationReport, XYExchange, circuit_from_text,
                       circuit_to_text, controlled_phase_circuit,
                       controlled_phase_local_z_target,
                       dressed_swap_phase_conjugation, euler_zxz, evaluate,
                       parallel_apply, refocused_rotation_circuit, su2_compile,
                       swap_conjugation, verify_target, xy_controlled_phase_circuit,
                       xy_x_rotation_circuit)
from .device import (DeviceConstants, DeviceGeometry, FieldProfile, SpinSite,
                     WireSpec, device_constants, error_budget, field_profile,
                     gate_time_estimate, geometry_from_text, geometry_to_text,
                     line_field, position_sensitivity, pulse_duration,
                     twin_wire_preset, validate_currents)
from .linalg import hermitian_expm, max_abs, phase_distance
from .schedule import (ExchangeEvent, FieldEvent, Schedule, compile_schedule,
                       schedule_from_text, schedule_to_text, simulate_schedule,
                       unitary_digest, validate_schedule)
from .spins import (RegisterSpec, apply_op, exchange_unitary,
                    global_field_unitary, rotation_2x2, spin_operator,
                    xy_exchange_unitary, zeeman_angles)
from .synth import (PulseTemplate, SequenceSolution, SynthesisProblem,
                    SynthesisResult, enumerate_sequences, global_hadamard_search,
                    problem_from_text, problem_to_text, result_to_text,
                    reverify)

__version__ = "0.1.0"
