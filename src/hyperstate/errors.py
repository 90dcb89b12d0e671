"""Exception types and the one place where resource limits live.

Every route that allocates in proportion to 2**d, or to its square, calls
``require_bytes`` before its first allocation with the bytes of the arrays it
holds at its peak, computed from its own shapes; one budget bounds them all.
Work that allocates little but runs long is counted in its own unit.  Every
GuardError is raised here, before the work starts.
"""

# Peak bytes of the arrays one route holds; the interpreter's own ~35 MiB is not counted.
MAX_BYTES = 1 << 30
# Work of one sweep, configurations x 2**d x (candidate edges + d): one indicator
# product and about d passes over 2**d amplitudes per configuration.  dminus1
# sweeps pass up to d = 16 (1.4e11) and fail from d = 17 (5.8e11).
MAX_SWEEP_WORK = 1 << 38
# Estimated bit length n**2 d of det m in one witness (13906 at (d, n) = (16, 32)).
# The dearest pairs in budget, (7, 64) and (8, 64), take 0.13-0.16 s on 2 vCPUs.
MAX_WITNESS_BITS = 1 << 15
# dim**3 steps of one dense eigensolve, matrix power or matrix product: dim <= 256.
MAX_CUBIC_WORK = 1 << 24


class GuardError(RuntimeError):
    """A limit of ``hyperstate.errors`` would be exceeded; raised before the work starts.

    Not a usage error in the ValueError sense: the CLI maps it to exit code 2.
    """


class SchemaError(ValueError):
    """A persisted cache entry or results file does not match the expected schema."""


def dimension(d: int) -> int:
    """2**d for a byte estimate, saturated at 2**64 (past any budget) so that no huge integer is built."""
    return 1 << min(d, 64)


def require_bytes(what: str, nbytes: int) -> None:
    """Refuse ``what`` when the arrays it holds at its peak, ``nbytes`` in all, exceed MAX_BYTES."""
    if nbytes > MAX_BYTES:
        size = f"{-(-nbytes >> 20)} MiB" if nbytes < 1 << 64 else "more than 2**64 bytes"
        raise GuardError(f"{what} needs {size}, beyond the byte budget of {MAX_BYTES >> 20} MiB")


def require_sweep_work(what: str, work: int, units: str) -> None:
    """Refuse ``what`` when its ``work``, counted in ``units``, exceeds MAX_SWEEP_WORK."""
    if work > MAX_SWEEP_WORK:
        raise GuardError(f"{what} exceeds the work budget of 2**38 ({units})")


def require_witness_bits(what: str, bits: int) -> None:
    """Refuse the witness ``what`` when det m would have more than MAX_WITNESS_BITS bits."""
    if bits > MAX_WITNESS_BITS:
        raise GuardError(f"{what}: det m would have about n**2 d = {bits} bits, beyond the witness budget of 2**15")


def require_cubic_work(what: str, dim: int) -> None:
    """Refuse a dense ``what`` at ``dim`` whose dim**3 steps exceed MAX_CUBIC_WORK."""
    if dim**3 > MAX_CUBIC_WORK:
        raise GuardError(f"{what} at dim={dim} exceeds the cubic work budget of 2**24 (dim <= 256)")
