import sys
from pathlib import Path

# The benchmark's modules import each other flat, as ``run.py`` does when
# started as a script.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
