let () =
  Alcotest.run "odex"
    [
      ("crypto", Test_crypto.suite);
      ("extmem", Test_extmem.suite);
      ("backend", Test_backend.suite);
      ("journal", Test_journal.suite);
      ("batch", Test_batch.suite);
      ("flat", Test_flat.suite);
      ("seal", Test_seal.suite);
      ("sortnet", Test_sortnet.suite);
      ("iblt", Test_iblt.suite);
      ("compaction", Test_compaction.suite);
      ("selection", Test_selection.suite);
      ("sort", Test_sort.suite);
      ("logstar", Test_logstar.suite);
      ("oram", Test_oram.suite);
      ("bounds", Test_bounds.suite);
      ("properties", Test_properties.suite);
      ("telemetry", Test_telemetry.suite);
      ("obliviousness", Test_obliviousness.suite);
      ("shard", Test_shard.suite);
      ("multiserver", Test_multiserver.suite);
      ("statcheck", Test_statcheck.suite);
      ("edge", Test_edge.suite);
    ]
