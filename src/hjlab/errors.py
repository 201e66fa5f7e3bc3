"""Exception hierarchy.

Two top-level families matter for the CLI exit codes: configuration
problems (bad keys, missing files, inconsistent options) and scientific
failures (an invariant that the run was supposed to certify did not
hold).  Everything else is a plain bug and propagates as-is.
"""

__all__ = ["ConfigError", "ScientificError", "WindowError",
           "BracketExitError", "CertificateError", "HillError", "GlueError",
           "FlatPieceError", "StabilityError", "SignError"]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


class ScientificError(RuntimeError):
    """A certified quantity or invariant failed during a run (exit code 1)."""


class WindowError(ScientificError):
    """A computation needs samples outside the realized window."""


class BracketExitError(ScientificError):
    """An integrated slope profile left its invariant bracket.

    The slope of a one-sided corrector is confined to a closed interval
    determined by the Hamiltonian branch; leaving it beyond tolerance
    means the integrator step is too large (or the setup is wrong).
    """


class CertificateError(ScientificError):
    """No usable contraction modulus / certificate for the request."""


class HillError(ScientificError):
    """The supplied flat region is too short for the requested slack."""


class GlueError(ScientificError):
    """Bridge construction left its slope or level tolerance band."""


class FlatPieceError(ScientificError):
    """A slope inversion was requested inside the flat piece."""


class StabilityError(ScientificError):
    """The explicit scheme violated its CFL bound or produced non-finite values."""


class SignError(ScientificError):
    """A one-sided residual check (sub/supersolution probe) failed."""
