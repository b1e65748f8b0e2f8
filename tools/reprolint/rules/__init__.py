"""Rule registry.  Adding a rule = one module exporting ``RULE`` + one line here."""

from tools.reprolint.rules.rl001_read_purity import RULE as RL001
from tools.reprolint.rules.rl002_counters import RULE as RL002
from tools.reprolint.rules.rl003_packed import RULE as RL003
from tools.reprolint.rules.rl004_factorization import RULE as RL004
from tools.reprolint.rules.rl005_nan import RULE as RL005
from tools.reprolint.rules.rl006_clock import RULE as RL006

ALL_RULES = [RL001, RL002, RL003, RL004, RL005, RL006]
