"""The paper's tables and figures, reproduced against the ``repro`` ledger.

``python -m paper [--full] [experiment ...]`` prints them; one module per
table or figure (``table1`` ... ``fig10``, ``ablations``) exposes
``run(quick)`` and ``render(result)``.  Nothing under ``repro`` imports this
package: the comparator systems (:mod:`paper.baselines`), the accumulator
baselines (:mod:`paper.merkle`), the cost model (:mod:`paper.costmodel`) and
the workload generators (:mod:`paper.workloads`) exist only to be measured
against the ledger.
"""
