"""Input/output: JSON serialisation, structural export and text reports.

* :mod:`repro.io.serialization` — JSON round-trip for use-case sets and
  mapping results (the library's interchange format).
* :mod:`repro.io.export` — structural export of a finished NoC design (our
  stand-in for the paper's SystemC/VHDL generation step).
* :mod:`repro.io.report` — plain-text tables for the experiment sweeps, in
  the shape the paper's figures report them.
"""

from repro.io.serialization import (
    atomic_write,
    use_case_set_to_dict,
    use_case_set_from_dict,
    save_use_case_set,
    load_use_case_set,
    mapping_result_to_dict,
    mapping_result_from_dict,
    save_mapping_result,
    load_mapping_result,
    mapping_fingerprint,
)
from repro.io.export import export_design, design_to_dict
from repro.io.report import format_rows, format_summary

__all__ = [
    "atomic_write",
    "use_case_set_to_dict",
    "use_case_set_from_dict",
    "save_use_case_set",
    "load_use_case_set",
    "mapping_result_to_dict",
    "mapping_result_from_dict",
    "save_mapping_result",
    "load_mapping_result",
    "mapping_fingerprint",
    "export_design",
    "design_to_dict",
    "format_rows",
    "format_summary",
]
