"""Exception hierarchy shared across the toolkit."""


class AnoncertError(Exception):
    """Base class for all toolkit errors."""


class UnknownCurve(AnoncertError, ValueError):
    """A curve id names no supported curve, or a curve the operation lacks."""


class CurveMismatch(AnoncertError):
    """Operands are tagged with different curves."""


class NotOnCurve(AnoncertError):
    """A point fails the curve equation."""


class BlindingOutOfRange(AnoncertError):
    """A blinding scalar is 0 or >= n."""


class DegenerateResult(AnoncertError):
    """A key-expansion result landed on the identity / zero key."""


class RngFailure(AnoncertError):
    """The random source could not produce usable output."""


class InvalidRecipientKey(AnoncertError):
    """ECIES recipient key is the identity or off-curve."""


class InvalidEphemeralKey(AnoncertError):
    """ECIES ciphertext carries an unusable ephemeral key."""


class AuthenticationFailure(AnoncertError):
    """AEAD tag check failed; ciphertext or key is wrong."""


class MalformedEncoding(AnoncertError):
    """Canonical bytes could not be decoded; message names the offending field."""


class InvalidKey(AnoncertError):
    """A key fails its structural preconditions."""


class InvalidValidity(AnoncertError):
    """Certificate validity window is not well-ordered."""


class BadSignature(AnoncertError):
    """A protocol signature failed verification."""


class BadCertificate(AnoncertError):
    """A certificate failed verification."""


class Ineligible(AnoncertError):
    """The requesting certificate serial is not on the RA allowlist."""


class EnvelopeFailure(AnoncertError):
    """An encryption envelope could not be opened or was malformed."""


class UnknownRequestHash(AnoncertError):
    """No pending request matches the response hash."""


class DuplicateRequest(AnoncertError):
    """A byte-identical request is already pending."""


class AlreadyServed(AnoncertError):
    """The requesting certificate serial already has a request pending or
    served: one identity gets one anonymous credential."""


class KeyMismatch(AnoncertError):
    """Derived formal key does not match the certificate public key."""


class NotFinalized(AnoncertError):
    """EE has no issued anonymous certificate yet."""


class ProtocolStateError(AnoncertError):
    """An actor step was invoked in the wrong state."""
