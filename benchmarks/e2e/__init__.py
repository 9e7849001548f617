"""End-to-end benchmark: FASTA/MGF files to ranked hits through every engine.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repository
root names the command, the workloads and the metrics.
"""
