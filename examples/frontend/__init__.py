"""The Figure-1/Figure-2 front end that ``verifiable_accounts.py`` tours.

A deployment-side layer on top of the ledger, not part of it: no ledger
module imports it.

* :mod:`frontend.shared` — :class:`SharedStorage`, the content-addressed
  blob store payloads go to;
* :mod:`frontend.proxy` — :class:`LedgerProxy`, which sends the payload to
  shared storage and a fixed-size reference to the ledger;
* :mod:`frontend.worldstate` — :class:`WorldState`, the single-layer state
  accumulator of current values.
"""
