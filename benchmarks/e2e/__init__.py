"""End-to-end benchmark of the composed WS-Messenger stack.

One command measures what a publish costs through store + delivery + QoS +
batching + templates + obs together (single node and 4-shard mesh), checks
every output against an oracle, and attributes the cost to ``src/repro``
layers from outside, by timing calls into public functions.  See README.md
in this directory for the glossary and how to read the tables.
"""
