"""pdaudit: static personal-data flow auditing over the PIR textual IR.

Pipeline: parse -> label sources -> dependence graph -> forward slices ->
taint flows as dependence paths -> DPV mapping -> audit report. See the README for the
CLI and the registry file formats.
"""

__version__ = "0.1.0"
