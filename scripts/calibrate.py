"""calibrate.py [section ...] — the table of repro.lattester.calibrate."""
import sys
from repro.lattester.calibrate import main
main(sys.argv[1:])
