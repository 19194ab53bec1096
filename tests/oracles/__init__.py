"""Code kept for comparison: every reference implementation, once.

The suites pin the fast kernels by bit-parity against the code each
replaced — frozen verbatim when the replacement landed (ROADMAP ground
rule 3) — and against scalar definitions no command runs.  Each lives
here, in the module of the ``src/`` layer it pins; a frozen copy retires
only on mutation evidence (ROADMAP item 13), and
``tests/core/test_oracle_home.py`` keeps the layout.  Tests import the
package as ``oracles``: ``tests/`` has no ``__init__.py``, so pytest's
default ``prepend`` import mode puts ``tests/`` first on ``sys.path``
when it imports ``tests/conftest.py``.

One line per oracle — *frozen* (replaced code, verbatim) or *scalar*
(a definition moved out of ``src/``): what it pins → its suites.

- walk.levels_to_csr, frozen: the CSR read contract → test_walk_contract
- walk.masked_descent / masked_fast_lookup, frozen: ``_descend`` →
  test_descent_parity
- walk.dense_ragged_to_csr, frozen: ``ragged_to_csr`` → test_csr_writer
- walk.head_to_rows / rows_to_head: the compact path head as per-slot rows
- dh_walk.parent_dh_walk / parent_walk, frozen: ``_dh_walk``'s replayed
  phase II → test_descent_parity, test_dh_walk_live
- dh_walk.wide_dh_walk / wide_replay / wide_walk, frozen: ``_dh_walk``'s
  lane-free ``int32`` records and ``replay`` → test_descent_parity
- dh_walk.AllLanesWalkOracle, frozen: phase I on live lanes, the cost
  rule → test_dh_walk_live
- lookup.parent_* / Parent*, frozen: the one node step of
  ``core/lookup.py`` → test_lookup_contract
- lookup.verify_adjacent, scalar: a path's hops are edges → test_lookup,
  test_lookup_contract, test_protocol_properties
- cache.DenseServeOracle, frozen: the ragged ``serve_batch`` →
  test_cache_ragged
- cache.OneDrawEngine, frozen: the blocked narrow ``tau`` draw →
  test_tau_storage
- cache.served_counts / last_epoch_served / *_item_stats: the §3
  counters → test_batch_cache, test_caching, test_cache_parity
- cache.items_cached_at, scalar: one server's cached items, a scan of
  every tree → test_caching
- cost._parent_* accountants, frozen: the chunked ISP accountants →
  test_cost_accounting
- cost._parent_select_rows, frozen: ``select_rows`` → test_select_mask
- adjacency.key_table / isin_sorted, frozen: adjacency as index ranges
  → test_adjacency_ranges
- adjacency.adjacency_arrays, scalar: the neighbour sets as CSR rows →
  test_adjacency_ranges, test_compile_parity, test_batch
- adjacency.csr_keys / edge_keys: relations as key tables →
  test_adjacency_ranges, test_compile_parity, test_batch_parity,
  test_router_refresh
- segments.midpoints_array, scalar: segment midpoints via ``Arc`` →
  test_compile_parity, test_batch_parity, test_segments
- segments.scalar_select, frozen: ``MultipleChoice.select`` →
  test_id_strategy_parity
- segments.loop_grow / loop_populate, frozen: ``grow`` and ``populate``
  → test_id_strategy_parity
- segments.arcs_cover_ring (Claim 6.5) / intersection_length, scalar:
  ring arcs → test_interval, test_overlap, test_segments
- segments.linear_distance, scalar: Obs 2.3's metric ``|x − y|``, moved
  out of ``core/interval.py`` → test_continuous, test_core_properties
- overlap.parent_cover_table, frozen: §6.2's class table →
  test_cover_class
- routing_stats.ParentBatchCongestion, frozen: the blocked booking and
  the in-place key merge → test_congestion_booking
- baselines.measure_scheme, scalar: ``measure_scheme_batch`` →
  test_baselines, test_batch_baselines
- exact.exact_fast_lookup, scalar: §2.2.1's Fast Lookup in ``Fraction``
  arithmetic over float ids → test_exact_fast_lookup
- exact.exact_dh_lookup, scalar: §2.2.2's dh lookup on a pinned ``τ``
  in ``Fraction`` arithmetic, neighbour sets derived exactly →
  test_exact_dh_lookup
- exact.digits_to_point, scalar: ``0.d_1 d_2 …`` as a ``Fraction``, moved
  out of ``core/continuous.py`` → test_continuous, test_core_properties
- inputs: the adversarial ids, the ``populated`` / ``joined`` builders
  and the exact suites' ``boundary_network``; compare.assert_same:
  dtype, shape and bits, field by field
"""
