"""Min-plus matrix key exchange, the binary-search attack that breaks it,
and a benchmark harness for key sizes and recovery times."""

from .tropical import (
    ChainOrdering,
    DimensionMismatchError,
    FormatError,
    TropicalMatrix,
    chain_compare,
    in_column_space,
    matrix_from_json,
    matrix_to_json,
    random_matrix,
)
from .semidirect import (
    SemigroupOpKind,
    SemigroupPair,
    apply,
    op_circ,
    op_star,
    periodic_powers,
    power,
    powers,
)
from .protocol import (
    KeyAgreementError,
    PartyState,
    ProtocolParams,
    Transcript,
    derive_shared_key,
    draw_exponent,
    params_from_json,
    params_to_json,
    party_powers,
    run_exchange,
    run_parties,
    setup,
    transcript_from_json,
    transcript_to_json,
)
from .attack import (
    AttackError,
    AttackResult,
    ChainViolationError,
    ExponentNotFoundError,
    attack_result_to_json,
    doubling_phase,
    find_chain_exponent,
    recover_key_targeting,
)
from .bench import (
    CSV_HEADER,
    ExperimentRow,
    RunConfig,
    average_key_size_bits,
    measure_alpha,
    rows_to_csv,
    run_experiment,
)

__version__ = "0.1.0"
