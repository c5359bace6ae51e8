"""An empty module, kept only because the benchmark tracer names it.

perfbench/tracer.py lists "linalg" in LAYERS and imports qgame.linalg, so
the traced benchmark runs fail without this file. It holds no code: the
state arithmetic is plain Python complex arithmetic in scheme.py (the grid
tables in equilibrium.py use numpy). ROADMAP.md item 1 (the
stage-level benchmark contract) drops linalg from LAYERS and deletes this
module.
"""
