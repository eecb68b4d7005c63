"""Descriptor-vocabulary mining, semantic-ID assignment, and constrained
beam-search retrieval over an item corpus.

Import the submodules themselves (``tagforge.cli``, ``tagforge.builder``,
...): the package loads none of them, so that each pipeline stage loads
only what it runs.
"""

__version__ = "0.1.0"
