"""Exception hierarchy shared by all rade subsystems."""


class RadeError(Exception):
    """Base class for every error raised by this package."""


# --- recipe corpus ---


class MalformedManifest(RadeError):
    """Manifest document is not syntactically valid."""


class SchemaViolation(RadeError):
    """Manifest is missing a required field or a field has the wrong shape."""


class InvariantViolation(RadeError):
    """A structurally valid value breaks a domain invariant."""


class DuplicateRecipe(RadeError):
    """Two corpus directories declare the same (name, version)."""


# --- target matrix ---


class EmptyTargetSet(RadeError):
    """A recipe's target filter eliminated every matrix combination."""


# --- dependency graph ---


class UnknownDependency(RadeError):
    """A dependency names a recipe absent from the corpus."""


class UnsatisfiableConstraint(RadeError):
    """No available version satisfies the constraint (or constraint set)."""


class DependencyCycle(RadeError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(" -> ".join("%s/%s" % node for node in self.cycle))


# --- pipeline phases ---


class SourceUnavailable(RadeError):
    """The source bundle cannot be fetched (bad scheme, missing file)."""


class SourceChecksumMismatch(RadeError):
    """Fetched source bundle does not match the declared sha256."""


class BuildFailed(RadeError):
    """Build script exited nonzero."""


class TestFailed(RadeError):
    def __init__(self, origin, command, message=""):
        self.origin = origin
        self.command = command
        detail = f"{origin} test failed: {command}"
        if message:
            detail += f" ({message})"
        super().__init__(detail)


class InstallFailed(RadeError):
    """Installation into the integration tree failed."""


class DeliverFailed(RadeError):
    """Deliver phase (clean rebuild, deploy install, modulefile) failed."""


# --- environment trees ---


class EmptyInstallation(RadeError):
    """Installed prefix contains neither bin/ nor lib/."""


class MissingDependencyInstallation(RadeError):
    """A dependency was never installed into the tree for this target."""


# --- delivery repository ---


class TransactionInProgress(RadeError):
    """Another transaction holds the repository writer lock."""


class PathCollision(RadeError):
    """Two stagings target the same repository path with different content."""


class StoreWriteFailure(RadeError):
    """Objects or catalog could not be written; repository head unchanged."""


class CorruptHead(RadeError):
    """Repository HEAD is unreadable or references a bad catalog."""


# --- site client ---


class IntegrityError(RadeError):
    """A fetched object's digest does not match its name."""


class NotDelivered(RadeError):
    """Requested recipe/target is absent from the synced catalog."""


# --- configuration ---


class ConfigError(RadeError):
    """Orchestrator configuration is missing or invalid."""
