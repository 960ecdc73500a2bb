"""Comparator systems: QLDB-, Fabric-, ProvenDB- and Factom-like simulators,
and the Table I capability matrix."""
