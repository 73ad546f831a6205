"""fragsmith: molecule fragmentation data machinery.

Parse and canonicalize SMILES, fragment molecules along retrosynthetic
cut rules under an adaptive fragment cap, recombine fragments, tokenize
with a multi-scale vocabulary, build paired forward/backward instruction
datasets, and score predictions.
"""

from .brics import (
    BricsBond,
    FragmentParams,
    FragmentSet,
    RuleTable,
    cut_bonds,
    find_brics_bonds,
    fragment,
    load_rules,
    max_fragments,
)
from .dataset import (
    InstructionRecord,
    MoleculeLibrary,
    emit_jsonl,
    fill_template,
    make_finetune_pairs,
    make_pretrain_pairs,
    preprocess,
)
from .metrics import (
    EvalReport,
    FingerprintBitset,
    bleu,
    evaluate,
    exact_match,
    fingerprint,
    levenshtein,
    tanimoto,
    topk_accuracy,
)
from .molgraph import (
    Atom,
    Bond,
    Molecule,
    SmilesError,
    ValidityReport,
    canonical_smiles,
    molecular_weight,
    parse_smiles,
    randomized_smiles,
    validate,
)
from .recombine import carbon_cap, rejoin
from .tokenizer import TokenStream, Vocab, build_vocab, detokenize, tokenize

__all__ = [
    "Atom",
    "Bond",
    "BricsBond",
    "EvalReport",
    "FingerprintBitset",
    "FragmentParams",
    "FragmentSet",
    "InstructionRecord",
    "Molecule",
    "MoleculeLibrary",
    "RuleTable",
    "SmilesError",
    "TokenStream",
    "ValidityReport",
    "Vocab",
    "bleu",
    "build_vocab",
    "canonical_smiles",
    "carbon_cap",
    "cut_bonds",
    "detokenize",
    "emit_jsonl",
    "evaluate",
    "exact_match",
    "fill_template",
    "find_brics_bonds",
    "fingerprint",
    "fragment",
    "levenshtein",
    "load_rules",
    "make_finetune_pairs",
    "make_pretrain_pairs",
    "max_fragments",
    "molecular_weight",
    "parse_smiles",
    "preprocess",
    "randomized_smiles",
    "rejoin",
    "tanimoto",
    "tokenize",
    "topk_accuracy",
    "validate",
]

__version__ = "0.1.0"
