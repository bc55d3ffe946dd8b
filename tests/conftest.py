import signal
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

FIXTURE_A = """\
class com.app.Main extends android.app.Activity {
  method void onCreate() {
    0: $e = call android.widget.EditText.getText() @widget("email_input")
    1: call com.analytics.Tracker.log($e)
    2: return
  }
}
"""

FIXTURE_B = """\
class com.app.Loc extends java.lang.Object {
  method void send(p0) {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: if p0 goto 4
    2: $p = call com.app.Crypto.hash($l)
    3: goto 5
    4: $p = $l
    5: call com.net.Http.post($p)
    6: return
  }
}
"""

FIXTURE_B_PRIME = FIXTURE_B.replace("4: $p = $l", "4: $p = call com.app.Crypto.hash($l)")


def fixture_registries():
    """In-memory registries covering the A/B fixtures."""
    from pdaudit.registry import (
        Lexicon,
        PersonalDataCategory,
        SanitizerRegistry,
        SinkKind,
        SinkMatch,
        SinkRegistry,
        SourceRegistry,
    )

    location = PersonalDataCategory("Location")
    email = PersonalDataCategory("EmailAddress")
    sources = SourceRegistry(
        {"android.location.LocationManager.getLastKnownLocation": location}
    )
    sinks = SinkRegistry(
        exact={},
        prefixes={
            "com.analytics.": SinkMatch(SinkKind.ANALYTICS, "Tracker"),
            "com.net.": SinkMatch(SinkKind.NETWORK, None),
        },
    )
    sanitizers = SanitizerRegistry(frozenset({"com.app.Crypto.hash"}))
    lexicon = Lexicon({"email": email})
    return sources, sinks, sanitizers, lexicon


class TimeLimitExceeded(Exception):
    """A call under time_limit ran past its limit."""


@contextmanager
def time_limit(seconds: int):
    """Raise TimeLimitExceeded in the body once it has run for seconds
    (SIGALRM, main thread only). A hang is not a traceback, so an exit-code
    check never sees one, and Hypothesis checks its deadline only after
    the call returns."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# Class hierarchies that Java forbids (JLS 8.1.4): validate reports each
# cycle, and analyze exits 2 instead of walking the superclass chain forever.
SELF_EXTENDS = "class A extends A { method void f() { 0: call A.g() 1: return } }\n"
MUTUAL_EXTENDS = """\
class A extends B { method void f() { 0: call A.g() 1: return } }
class B extends A { method void g() { 0: return } }
"""
