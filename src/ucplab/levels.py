"""The scalar levels R, C, H, O of the matrix models and their Cayley-Dickson
dimensions.

Kept apart from `scalars` so that the command line can offer the levels as
choices without importing numpy.
"""

LEVEL_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}
LEVELS = tuple(LEVEL_DIM)
