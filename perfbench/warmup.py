"""The warm-up each workload does before its first timed op.

Run as a script, this is the set-up probe: ``python3 warmup.py <workload>``
starts a fresh interpreter, imports the engine and warms it up, so the
wall time of the whole process is the workload's set-up time.
"""

import sys


def _verify():
    from cuntzfock import cli, verify  # noqa: F401  (the suites run through cli)

    # the float oracle imports numpy and scipy and builds its matrices
    verify.float_oracle(1024, ["t1"])


def _transfer():
    from cuntzfock import correspondence as corr
    from cuntzfock import ladder

    corr.inverse(corr.forward(ladder.parse_boson_expr("1^2 3")).fermion)


def _scalars():
    from cuntzfock import radical

    radical.sqrt_of_nat(12) * radical.sqrt_of_nat(3)


WARMUPS = {"verify": _verify, "transfer": _transfer, "scalars": _scalars}

if __name__ == "__main__":
    WARMUPS[sys.argv[1]]()
