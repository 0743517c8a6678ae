let () =
  Alcotest.run "xpose_cpu"
    [
      ("pool", Suite_pool.tests);
      ("par_transpose", Suite_par_transpose.tests);
      (* The paper's cache-aware column operations, run by Fused_f64. *)
      ("cache_aware", Suite_fused.cache_aware_tests);
      ("fused", Suite_fused.tests);
      ("f64_kernels", Suite_f64.tests);
      (* The same operations driven across the domain pool. *)
      ("par_cache_aware", Suite_fused.par_cache_aware_tests);
      ("skinny", Suite_skinny.tests);
    ]
