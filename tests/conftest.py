import os
import sys
import tempfile

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# deterministic property tests that leave no example database behind;
# Hypothesis still caches source constants on disk, so point its storage
# at a temporary directory that is removed when the session exits
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)
settings.register_profile("tier1", derandomize=True, database=None, max_examples=40, deadline=None)
settings.load_profile("tier1")
