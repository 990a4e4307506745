import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# On a failing property, hypothesis's pytest plugin imports its patch writer,
# whose libcst import raises a mypy_extensions DeprecationWarning, which the
# run's error::DeprecationWarning filter would turn into an internal error
# that ends the session.  Imported once here with that warning ignored, the
# failure is reported as a failed test.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
