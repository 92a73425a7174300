"""KBQA over small knowledge bases with verifier-guided repair and
unanswerability detection.

Core surface: load a KB (`kb.load_kb`), parse logical forms (`query`),
execute them (`executor.execute`), verify them (`verifiers.run_suite`), and
run the full generate/verify/repair/consensus pipeline per question
(`pipeline.run_question`).  Everything deterministic is testable offline via
the scripted mock gateway.
"""

__version__ = "0.1.0"

from .kb import KnowledgeBase, load_kb
from .query import CanonicalQuery, LogicalForm, parse_sexpr, parse_sparql
from .executor import execute
from .pipeline import FunConfig, PipelineOutcome, run_dataset, run_question

__all__ = [
    "KnowledgeBase",
    "load_kb",
    "CanonicalQuery",
    "LogicalForm",
    "parse_sparql",
    "parse_sexpr",
    "execute",
    "FunConfig",
    "PipelineOutcome",
    "run_question",
    "run_dataset",
    "__version__",
]
