"""Reference implementations kept as test oracles for the optimized code."""
