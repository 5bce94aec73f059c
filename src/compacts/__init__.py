"""Compacts: declarative, violable contracts over a simulated permissioned ledger.

Events pass admission control into a hash-chained, proof-of-work ledger;
a deterministic evaluator computes each norm instance's lifecycle state
from the active chain; violations activate governance norms of the
organizational context; terminal outcomes feed evidential trust scores.
"""

from .evaluator import (
    ChainInvalid,
    EvalState,
    NormInstance,
    NormState,
    SpecIllFormed,
    evaluate,
)
from .governance import (
    Organization,
    UnrosteredEmitter,
    ruleset_from_spec,
)
from .incremental import NonContiguousBlock, apply_block, initial_state
from .lang import ParseError, check_observability, check_well_formedness, parse_compact, pretty_print
from .ledger import (
    Block,
    BlockHeader,
    Chain,
    Event,
    GENESIS_BLOCK,
    GENESIS_HEADER,
    Position,
    canonical_serialize,
    genesis_chain,
    hash_block_header,
    mine_block,
    select_active_chain,
    validate_block,
    verify_chain,
)
from .matching import DerivedFact, Match, match_condition
from .network import NetworkConfig, NetworkResult, Submission, run_network
from .trust import TrustScore, trust_report
from .validator import (
    Channel,
    IntegrityRuleSet,
    Parameter,
    SchemaDecl,
    check_integrity,
    validate_event_schema,
)

__version__ = "0.1.0"
