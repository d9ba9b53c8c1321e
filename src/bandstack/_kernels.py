"""Name of the kernel implementation in use.

Every band plan comes from one kernel, ``mapping.stack_fast``, in numpy.
The benchmark harness reports this name on its environment line.
"""


def active_lane() -> str:
    """Name of the kernel implementation in use, reported by benchmarks."""
    return "python"
