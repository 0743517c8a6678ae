let () =
  Alcotest.run "xpose_permute"
    [
      ("shape", Suite_shape.tests);
      ("planner", Suite_planner.tests);
      ("exec", Suite_exec.tests);
      ("units", Suite_units.tests);
    ]
