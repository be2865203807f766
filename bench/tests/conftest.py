import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
# In-process tests import the program the benchmark measures.
sys.path.insert(0, str(ROOT / "src"))
