"""Loss, optimizer, metrics, training loop, stratified evaluation."""

# Import each name from the module that defines it. This one stays
# importable from the package only because perfbench/probe.py imports it
# by this path, and perfbench is kept fixed so that its runs compare
# across commits.
from .loss import bce_loss
