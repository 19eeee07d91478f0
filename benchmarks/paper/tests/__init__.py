"""Tests of the paper harness, and the reproduction of every table and figure of §6."""
