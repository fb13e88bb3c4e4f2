import os
import sys

# the tests import their single-node oracle, tests/reference.py, as ``reference``
# under every pytest import mode
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
