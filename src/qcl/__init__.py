"""qcl: exact local counting and exponential-sum toolkit for integral
quaternion quadrics."""

__version__ = "0.1.0"

#: seed of every seeded draw when the caller gives none (the CLI's --seed)
DEFAULT_SEED = 20260823
