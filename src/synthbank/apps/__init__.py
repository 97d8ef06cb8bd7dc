"""Banking-domain information products used to score synthetic data utility.

Each application module owns everything the pipeline needs to know about
its application, under the same names:

- ``POPULATION``: its ``input.datagen`` settings class
- ``INPUT_FILES``: the keys of its ``input.files`` section
- ``rules(strategy)``: its binning preset for a strategy
- ``PAIRED``: the column pairs that must share one binning rule, such as
  the two years of one state
- ``WORKLOAD``: its default AIM workload, as column tuples
- ``prepare(population, files, rng)``: the original microdata and the
  extra input that evaluation needs
- ``EXTRA``: the file name of the extra input, or None when there is none;
  ``save_extra(extra, path)`` and ``load_extra(path)`` write and read it
- ``evaluate(original, extra, encoded, synthetic, decoded, strategy)``:
  a pure scorer returning the metrics and the plot tables, keyed by file
  name, as lists of rows of cells
- ``headline(metrics)``: the metrics a strategy comparison sets side by side

``APPS`` maps each config name of an application to its module.
"""

from . import credit, usage_index, yield_curve

APPS = {"fi": usage_index, "yield": yield_curve, "credit": credit}
