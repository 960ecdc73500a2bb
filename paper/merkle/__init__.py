"""The accumulator baselines the paper measures fam and CM-Tree against:
tim (one global Merkle accumulator), bim (per-block trees with a header
chain), bAMT (batched appends) and ccMPT (a clue-counter MPT over tim)."""
