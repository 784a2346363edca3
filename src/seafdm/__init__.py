"""Link-level simulator for a chirp-scrambled AFDM waveform.

The transform layer lives in :mod:`seafdm.daft`, keystream and schedule
handling in :mod:`seafdm.keystream`, the transmit/receive chains in
:mod:`seafdm.waveform`, the doubly dispersive channel in
:mod:`seafdm.channel`, MMSE detection in :mod:`seafdm.detection`,
closed-form security analytics in :mod:`seafdm.sinr`, and the experiment
harness plus CLI in :mod:`seafdm.harness` / :mod:`seafdm.cli`.

The package root exports the experiment entry points and the one-frame
chain that the README walks through; everything else is imported from
its submodule.
"""

from .channel import apply_channel, effective_channel, effective_channel_closed_form, sample_channel
from .daft import FrameParams
from .detection import count_errors, demap, mmse_equalize
from .exceptions import ConfigError, ContractViolation, SolverError
from .harness import ExperimentConfig, run_scenario
from .keystream import DEFAULT_TAPS, C2Schedule, Lfsr, build_codebook, generate_schedule, zero_schedule
from .waveform import bob_front_end, descramble, eve_front_end, map_bits, qpsk, se_afdm_modulate

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "run_scenario",
    "ConfigError",
    "ContractViolation",
    "SolverError",
    "C2Schedule",
    "DEFAULT_TAPS",
    "FrameParams",
    "Lfsr",
    "apply_channel",
    "bob_front_end",
    "eve_front_end",
    "build_codebook",
    "count_errors",
    "demap",
    "descramble",
    "effective_channel",
    "effective_channel_closed_form",
    "generate_schedule",
    "map_bits",
    "mmse_equalize",
    "qpsk",
    "sample_channel",
    "se_afdm_modulate",
    "zero_schedule",
    "__version__",
]
