"""Temporal knowledge graph question answering.

Pipeline in reading order: :mod:`tempkgqa.store` (facts and questions),
:mod:`tempkgqa.embeddings` and :mod:`tempkgqa.tgnn` (temporal graph
encoders), :mod:`tempkgqa.retrieval` (question-conditioned evidence
selection), :mod:`tempkgqa.prompts` and :mod:`tempkgqa.llm` (language model
interface), :mod:`tempkgqa.indicators` and :mod:`tempkgqa.head` (structured
answer scoring), :mod:`tempkgqa.evaluation` (ranking metrics), and
:mod:`tempkgqa.cli` (stage-by-stage pipeline).
"""

__version__ = "0.1.0"

__all__ = [
    "checkpoint",
    "cli",
    "config",
    "embeddings",
    "errors",
    "evaluation",
    "head",
    "indicators",
    "llm",
    "prompts",
    "retrieval",
    "store",
    "synthetic",
    "tgnn",
]
