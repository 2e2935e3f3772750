"""Desk benchmark for moelab: workloads, span tracing and summary statistics."""
