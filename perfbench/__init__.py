"""The g2frames benchmark: seeded verification sweeps through the public runner."""
